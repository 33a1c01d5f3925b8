"""E9 — paper §3.2, Eqs. 1-3: sampling accuracy and error bounds.

Sweeps the two-level sampling grid (host rate × event rate) for an
approximate SUM over a heterogeneous host population with known ground
truth, reporting for each point the relative error of the estimate and
the predicted 95% error bound ε — and, across the whole grid, the CI
coverage (the bound should contain the truth ~95% of the time) and the
bytes-shipped savings relative to exhaustive collection.

Expected shape: error grows as rates shrink; the predicted ε tracks the
realized error; shipped bytes fall roughly proportionally to the
product of the rates.
"""

import math

from repro.core import ManualClock, Scrub
from repro.core.agent.sampling import uniform_from_hash
from repro.reporting import ExperimentReport

HOSTS = 40
EVENTS_PER_HOST = 300
GRID = [1.0, 0.5, 0.25, 0.10]


def run_grid():
    rows = []
    covered = 0
    total_points = 0
    for host_rate in GRID:
        for event_rate in GRID:
            clock = ManualClock()
            scrub = Scrub(clock=clock, grace_seconds=0.0)
            scrub.define_event("reading", [("value", "double"), ("sensor", "long")])
            hosts = [
                scrub.add_host(f"h{i}", services=["Sensors"]) for i in range(HOSTS)
            ]
            sampling = []
            if host_rate < 1.0:
                sampling.append(f"sample hosts {host_rate * 100:g}%")
            if event_rate < 1.0:
                sampling.append(f"sample events {event_rate * 100:g}%")
            handle = scrub.submit(
                "Select SUM(reading.value) from reading "
                "@[Service in Sensors] " + " ".join(sampling) +
                " window 100s duration 100s;"
            )
            # Heterogeneous, deterministic workload: host i's values are
            # drawn from a host-specific band, so machine-stage variance
            # is real.
            truth = 0.0
            rid = 0
            for i, host in enumerate(hosts):
                scale = 0.5 + 1.5 * uniform_from_hash(77, i)
                for j in range(EVENTS_PER_HOST):
                    rid += 1
                    value = scale * (0.5 + uniform_from_hash(88, rid))
                    truth += value
                    host.log("reading", value=value, sensor=i, request_id=rid)
            clock.set(101.0)
            results = scrub.finish(handle.query_id)
            (window,) = results.windows
            est = window.estimates.get("SUM(reading.value)")
            if est is None:
                # Unsampled queries are exact; no estimator runs.
                estimate, bound = window.rows[0][0], 0.0
            else:
                estimate, bound = est.estimate, est.error_bound
            rel_error = abs(estimate - truth) / truth
            rel_bound = bound / truth if math.isfinite(bound) else float("inf")
            # One ulp of slack: the exact (unsampled) sum is a float sum
            # whose order follows host placement, not the truth's loop.
            in_ci = abs(estimate - truth) <= bound + 1e-9 * abs(truth)
            bytes_shipped = sum(h.stats.bytes_shipped for h in hosts)
            rows.append([
                f"{host_rate * 100:g}%", f"{event_rate * 100:g}%",
                f"{rel_error * 100:.2f}%",
                ("inf" if not math.isfinite(rel_bound) else f"{rel_bound * 100:.2f}%"),
                in_ci, bytes_shipped,
            ])
            total_points += 1
            if in_ci:
                covered += 1
    return rows, covered, total_points


def test_eq123_sampling_error_bounds(benchmark):
    rows, covered, total_points = benchmark.pedantic(
        run_grid, rounds=1, iterations=1
    )

    report = ExperimentReport(
        "E9_sampling_accuracy",
        "approximate SUM under two-level sampling (Eqs. 1-3)",
    )
    report.table(
        "error vs predicted 95% bound",
        ["hosts", "events", "rel. error", "rel. ε (95%)", "truth in CI",
         "bytes shipped"],
        rows,
    )
    report.note(
        f"CI coverage: {covered}/{total_points} grid points; "
        f"population: {HOSTS} hosts x {EVENTS_PER_HOST} events."
    )
    report.emit()

    by_key = {
        (r[0], r[1]): r for r in rows
    }
    # Exhaustive collection is exact with a zero bound.
    full = by_key[("100%", "100%")]
    assert full[2] == "0.00%" and full[3] == "0.00%"
    # Coverage: the 95% bound holds on (almost) all points.
    assert covered >= total_points - 2
    # Bytes shipped shrink with the sampling product.
    full_bytes = by_key[("100%", "100%")][5]
    tenth = by_key[("10%", "10%")][5]
    assert tenth < 0.05 * full_bytes
    # Error grows as sampling gets more aggressive (full vs most-sampled).
    most_sampled_error = float(by_key[("10%", "10%")][2].rstrip("%"))
    assert most_sampled_error > 0.0
