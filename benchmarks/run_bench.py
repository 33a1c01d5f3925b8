#!/usr/bin/env python3
"""Pinned benchmark driver: central ingest and host fast path.

Runs the scenarios of ``test_perf_central_throughput`` and
``test_perf_fastpath`` at fixed seeds, outside pytest, and writes two
machine-readable artifacts at the repo root:

* ``BENCH_central.json`` — ScrubCentral ingest throughput for the
  per-event reference path (``CentralEngine.ingest_reference``, the
  pre-batching dispatch loop kept as executable documentation), the
  batched serial path (``CentralEngine.ingest``), and the process pool
  as shipped (``ShardPool`` with 1 and 4 workers: the parent passes ring
  offsets, not bytes — docs/SCALING.md §"Shared-memory ring ingest";
  a pool entry also records the ring counters, whose spills say how
  much of the run went over the pipe instead).  Every mode consumes the
  same pre-encoded **wire frames** — exactly what a scrubd data channel
  receives — so decode cost is on the clock for every path: the serial
  modes decode then ingest, the pool takes its zero-copy
  ``ingest_frame`` scan (docs/SCALING.md §"Zero-copy shard ingest").
  Every mode must produce **identical** window results — the run aborts
  otherwise.
* ``BENCH_fastpath.json`` — per-call cost of ``ScrubAgent.log`` in the
  regimes the minimal-impact claim depends on (disabled probe,
  selection rejects, match+ship, sampled out, overload drop).

Modes::

    python benchmarks/run_bench.py            # full run, rewrite artifacts
    python benchmarks/run_bench.py --quick    # small event counts (CI smoke)
    python benchmarks/run_bench.py --check    # full run + speedup assertions

``--quick`` still verifies serial/parallel equivalence but skips the
speedup floor (tiny runs are noise-dominated) and does not overwrite
committed artifacts unless ``--output-dir`` says so.

The machine matters: the pool cannot beat the batched serial path on a
single core (workers time-slice one CPU and pay IPC on top), so the
recorded artifact carries ``cpu_count`` and per-mode numbers.
``--check`` enforces **pool_4 ≥ serial_batched** events/s on the heavy
scenario only when ``cpu_count >= 4`` — on smaller boxes it prints an
explicit skip note instead of asserting a number the hardware cannot
produce — and always holds the batched serial path to its floor over
the per-event reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import timeit
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.agent import ScrubAgent  # noqa: E402
from repro.core.agent.transport import (  # noqa: E402
    EventBatch,
    decode_full_batch,
    encode_full_batch,
)
from repro.core.central.engine import CentralEngine  # noqa: E402
from repro.core.central.pool import ShardPool  # noqa: E402
from repro.core.events import Event, EventRegistry  # noqa: E402
from repro.core.query import parse_query, plan_query, validate_query  # noqa: E402

SEED = 20180423  # EuroSys'18 — fixed so reruns replay identical streams
BATCH = 1_000
HOSTS = 4


# -- scenario construction ----------------------------------------------------


def _registry() -> EventRegistry:
    registry = EventRegistry()
    registry.define(
        "bid",
        [("exchange_id", "long"), ("bid_price", "double"), ("user_id", "long")],
    )
    return registry


def _plan(text: str, registry: EventRegistry):
    return plan_query(validate_query(parse_query(text), registry), "q1")


def _heavy_events(n: int) -> list[Event]:
    """The recorded heavy scenario: group-by + SUM + HLL + TOP-K.

    Derived deterministically from the index (no RNG state to drift):
    dyadic prices keep float sums exact under any grouping, so the
    serial/parallel comparison is byte-for-byte, not approximately-equal.
    """
    return [
        Event(
            "bid",
            {
                "exchange_id": (i * 7) % 12,
                "bid_price": (i % 8) * 0.25,
                "user_id": (i * 37) % 480,
            },
            i,
            i * 0.01,  # 100 events/s of virtual time -> several 60s windows
            f"h{i % HOSTS}",
        )
        for i in range(n)
    ]


def _shape_events(n: int, groups: int) -> list[Event]:
    """The pipeline-shape sweep events (mirrors test_perf_central_throughput)."""
    return [
        Event(
            "bid",
            {"exchange_id": i % groups, "bid_price": 1.0, "user_id": i % 97},
            i,
            1.0,
            f"h{i % HOSTS}",
        )
        for i in range(n)
    ]


HEAVY_QUERY = (
    "select bid.exchange_id, COUNT(*), SUM(bid.bid_price), "
    "COUNT_DISTINCT(bid.user_id), TOP(5, bid.user_id) "
    "from bid window 60s group by bid.exchange_id;"
)

SHAPES = [
    ("global_count", "select COUNT(*) from bid window 1h;", 1),
    (
        "global_sum_avg",
        "select SUM(bid.bid_price), AVG(bid.bid_price) from bid window 1h;",
        1,
    ),
    (
        "group_by_10",
        "select bid.exchange_id, COUNT(*) from bid window 1h "
        "group by bid.exchange_id;",
        10,
    ),
    (
        "group_by_1000",
        "select bid.exchange_id, COUNT(*) from bid window 1h "
        "group by bid.exchange_id;",
        1000,
    ),
    (
        "count_distinct",
        "select COUNT_DISTINCT(bid.user_id) from bid window 1h;",
        1,
    ),
    ("top_10", "select TOP(10, bid.user_id) from bid window 1h;", 1),
]


def _batches(events: list[Event]) -> list[EventBatch]:
    out = []
    for start in range(0, len(events), BATCH):
        chunk = events[start : start + BATCH]
        by_host: dict[str, list[Event]] = {}
        for event in chunk:
            by_host.setdefault(event.host, []).append(event)
        for host, host_events in sorted(by_host.items()):
            out.append(EventBatch(host=host, query_id="q1", events=host_events))
    return out


# -- measurement --------------------------------------------------------------


def _signature(results) -> str:
    """Canonical rendering of everything a result set observable carries."""
    extra = [
        (w.window_start, w.contributing_hosts) for w in results.windows
    ]
    return results.to_json() + "|" + repr(extra)


def _run_mode(mode: str, workers: int, plan, frames: list[bytes]):
    """Ingest every wire frame, finish the query; return
    ``(elapsed_s, signature, ring)``.

    Frames are pre-encoded outside the timer: agents pay the encode, the
    central pays whatever its mode needs — full decode for the serial
    paths, the zero-copy header scan for the pool.  Feeding everyone the
    same bytes keeps the comparison deployment-honest.  *ring* carries
    the pool's ring counters from ``pool_health()``, or ``None`` for the
    serial modes.
    """
    ring = None
    if mode == "pool":
        engine: CentralEngine = ShardPool(workers=workers, grace_seconds=0.0)
    else:
        engine = CentralEngine(grace_seconds=0.0)
    try:
        engine.register(plan.central_object)
        start = time.perf_counter()
        if mode == "reference":
            for frame in frames:
                engine.ingest_reference(decode_full_batch(frame))
        else:
            # CentralEngine.ingest_frame reads fixed-layout frames as wire
            # rows and decodes the rest, then batch-ingests; the ShardPool
            # override scans and ships raw slices to workers.
            for frame in frames:
                engine.ingest_frame(frame)
        results = engine.finish("q1")
        elapsed = time.perf_counter() - start
        if mode == "pool":
            health = engine.pool_health()
            ring = {
                "transport": health["transport"],
                "spills": health["ring_spills"],
                "bytes_in_place": health["ring_bytes_in_place"],
                "high_water": max(
                    (r["high_water"] for r in health["rings"]), default=0
                ),
            }
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    return elapsed, _signature(results), ring


MODES = [
    ("reference", "reference", 0),
    ("serial_batched", "serial", 0),
    ("pool_1", "pool", 1),
    ("pool_4", "pool", 4),
]


def bench_central(quick: bool) -> dict:
    registry = _registry()
    heavy_n = 6_000 if quick else 60_000
    shape_n = 2_000 if quick else 20_000
    scenarios = []
    specs = [("heavy_recorded", HEAVY_QUERY, _heavy_events(heavy_n))]
    specs += [
        (name, query, _shape_events(shape_n, groups))
        for name, query, groups in SHAPES
    ]
    for name, query, events in specs:
        plan = _plan(query, registry)
        batches = _batches(events)
        frames = [encode_full_batch(batch) for batch in batches]
        modes = {}
        signatures = {}
        for label, mode, workers in MODES:
            elapsed, signature, ring = _run_mode(mode, workers, plan, frames)
            modes[label] = {
                "elapsed_s": round(elapsed, 6),
                "events_per_s": round(len(events) / elapsed, 1),
            }
            if ring is not None:
                modes[label]["ring"] = ring
            signatures[label] = signature
        mismatched = [
            label
            for label in signatures
            if signatures[label] != signatures["serial_batched"]
        ]
        if mismatched:
            raise SystemExit(
                f"FATAL: window results diverged in scenario {name!r}: "
                f"{mismatched} != serial_batched"
            )
        reference = modes["reference"]["elapsed_s"]
        scenarios.append(
            {
                "scenario": name,
                "query": query,
                "events": len(events),
                "batches": len(batches),
                "modes": modes,
                "results_identical": True,
                "speedup_vs_reference": {
                    label: round(reference / modes[label]["elapsed_s"], 2)
                    for label, _, _ in MODES
                },
            }
        )
        print(
            f"  {name}: "
            + "  ".join(
                f"{label}={modes[label]['events_per_s']:,.0f}/s"
                for label, _, _ in MODES
            )
        )
    return {
        "benchmark": "central_ingest",
        "seed": SEED,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": scenarios,
    }


# -- fast path ----------------------------------------------------------------


class _NullTransport:
    def send(self, batch: EventBatch) -> None:
        pass


def _agent(buffer_capacity: int = 1_000_000) -> ScrubAgent:
    registry = EventRegistry()
    registry.define(
        "bid",
        [
            ("exchange_id", "long"),
            ("city", "string"),
            ("bid_price", "double"),
            ("user_id", "long"),
        ],
    )
    registry.define("click", [("user_id", "long")])
    return ScrubAgent(
        "h1",
        registry,
        _NullTransport(),
        buffer_capacity=buffer_capacity,
        flush_batch_size=10**9,
    )


def _install(agent: ScrubAgent, text: str, query_id: str = "q1") -> None:
    plan = plan_query(
        validate_query(parse_query(text), agent.registry), query_id
    )
    for obj in plan.host_objects:
        agent.install(obj)


PAYLOAD = {"exchange_id": 5, "city": "San Jose", "bid_price": 1.25, "user_id": 7}


def _install_disabled(agent):
    _install(agent, "select COUNT(*) from click;")


def _install_rejecting(agent):
    _install(agent, "select COUNT(*) from bid where bid.exchange_id = 99;")


def _install_shipping(agent):
    _install(agent, "select COUNT(*) from bid;")


def _install_sampled(agent):
    _install(agent, "select COUNT(*) from bid sample events 1%;")


def _install_eight(agent):
    for i in range(8):
        _install(
            agent,
            f"select COUNT(*) from bid where bid.exchange_id = {i};",
            query_id=f"q{i}",
        )


def _install_dropping(agent):
    _install(agent, "select COUNT(*) from bid;")
    for i in range(4):
        agent.log("bid", PAYLOAD, request_id=i)


#: (regime name, buffer capacity, installer).  tests/core/test_codegen.py
#: replays the same six armed shapes through both agent routes and the
#: closure oracle (``test_bench_scenarios_agree_on_every_route``).
_FASTPATH_SCENARIOS = [
    ("disabled_probe", 1_000_000, _install_disabled),
    ("selection_rejects", 1_000_000, _install_rejecting),
    ("match_and_ship", 1_000_000, _install_shipping),
    ("match_sampled_out", 1_000_000, _install_sampled),
    ("eight_queries", 1_000_000, _install_eight),
    ("overload_drop", 4, _install_dropping),
]


def bench_fastpath(quick: bool) -> dict:
    n = 5_000 if quick else 50_000

    def measure(capacity, installer) -> float:
        agent = _agent(buffer_capacity=capacity)
        installer(agent)
        counter = iter(range(10**9))
        # min-of-repeats is the standard noise-robust per-call estimate
        # (interference only ever adds time); the --check ceilings gate
        # this minimum, so a GC pause or scheduler hiccup in one pass
        # cannot flunk a build the hardware actually passes.
        return (
            min(
                timeit.repeat(
                    lambda: agent.log("bid", PAYLOAD, request_id=next(counter)),
                    repeat=3,
                    number=n,
                )
            )
            / n
        )

    regimes = {
        name: measure(capacity, installer)
        for name, capacity, installer in _FASTPATH_SCENARIOS
    }
    base = regimes["disabled_probe"]
    for name, seconds in regimes.items():
        print(f"  {name}: {seconds * 1e9:,.0f} ns/call ({seconds / base:.1f}x)")
    return {
        "benchmark": "host_fastpath",
        "seed": SEED,
        "quick": quick,
        "calls_per_regime": n,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "regimes": {
            name: {
                "ns_per_call": round(seconds * 1e9, 1),
                "x_disabled_probe": round(seconds / base, 2),
            }
            for name, seconds in regimes.items()
        },
    }


# -- driver -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small event counts for CI smoke; equivalence still enforced",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the pinned speedup floors after measuring",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=REPO_ROOT,
        help="where to write BENCH_central.json / BENCH_fastpath.json",
    )
    args = parser.parse_args(argv)

    print(f"central ingest (quick={args.quick}, cpu_count={os.cpu_count()}):")
    central = bench_central(args.quick)
    print("host fast path:")
    fastpath = bench_fastpath(args.quick)

    args.output_dir.mkdir(parents=True, exist_ok=True)
    central_path = args.output_dir / "BENCH_central.json"
    fastpath_path = args.output_dir / "BENCH_fastpath.json"
    central_path.write_text(json.dumps(central, indent=2) + "\n")
    fastpath_path.write_text(json.dumps(fastpath, indent=2) + "\n")
    print(f"wrote {central_path} and {fastpath_path}")

    if args.check:
        heavy = central["scenarios"][0]
        cores = os.cpu_count() or 1
        # The batched hot path must clear its floor on any machine.  The
        # floor is far below the pre-frames era's 1.5x: every mode now
        # pays the wire decode (reference included), a shared additive
        # cost that compresses the ratio, and the heavy scenario's
        # sketch updates are per-item in both paths — measured ~1.1x on
        # the 1-core pin box (the shape sweep runs 1.2-1.3x), so 1.05
        # holds with noise margin while still catching a batched path
        # that regresses to per-event speed.
        floor = 1.05
        label = "serial_batched"
        speedup = heavy["speedup_vs_reference"]["serial_batched"]
        if speedup < floor:
            print(
                f"FAIL: {label} speedup over per-event reference is "
                f"{speedup:.2f}x (< {floor}x) on {heavy['scenario']}"
            )
            return 1
        # The headline parallel claim — pool_4 beats the batched serial
        # path — only means anything with real cores to spread across;
        # on a smaller box the workers time-slice one CPU and pay IPC on
        # top, so asserting it would pin a number the hardware cannot
        # produce.  Skip loudly, never silently.
        pool_eps = heavy["modes"]["pool_4"]["events_per_s"]
        serial_eps = heavy["modes"]["serial_batched"]["events_per_s"]
        if cores < 4:
            print(
                f"SKIP: pool-beats-serial assertion needs cpu_count >= 4, "
                f"have {cores} (pool_4 measured {pool_eps:,.0f}/s vs "
                f"serial_batched {serial_eps:,.0f}/s, not enforced)"
            )
        elif args.quick:
            print(
                "SKIP: pool-beats-serial assertion skipped under --quick "
                f"(tiny runs are IPC-startup-dominated; pool_4 measured "
                f"{pool_eps:,.0f}/s vs serial_batched {serial_eps:,.0f}/s)"
            )
        elif pool_eps < serial_eps:
            print(
                f"FAIL: pool_4 ingests {pool_eps:,.0f} events/s < "
                f"serial_batched {serial_eps:,.0f} events/s on "
                f"{heavy['scenario']} with {cores} cores"
            )
            return 1
        else:
            print(
                f"check OK: pool_4 {pool_eps:,.0f}/s >= serial_batched "
                f"{serial_eps:,.0f}/s on {heavy['scenario']}"
            )
        ring = heavy["modes"]["pool_4"]["ring"]
        print(
            f"  pool_4 ring: transport={ring['transport']} "
            f"spills={ring['spills']} "
            f"bytes_in_place={ring['bytes_in_place']:,} "
            f"high_water={ring['high_water']:,}"
        )
        base = fastpath["regimes"]["disabled_probe"]["ns_per_call"]
        if base >= 3_000:
            print(f"FAIL: disabled probe costs {base:.0f} ns/call (>= 3 µs)")
            return 1
        # Machine-aware armed-path ceilings: the absolute targets are
        # pinned on the CI-class box whose disabled probe measures
        # ~162 ns; slower machines get the ceilings scaled by their own
        # probe cost, so the check tracks armed *overhead*, not CPU
        # generation.  Quick runs are noise-dominated: timing ceilings
        # are skipped.
        _REFERENCE_PROBE_NS = 162.1
        _CEILINGS_NS = {"match_and_ship": 1_200.0, "eight_queries": 2_200.0}
        if args.quick:
            print("note: --quick skips fastpath timing ceilings")
        else:
            scale = max(1.0, base / _REFERENCE_PROBE_NS)
            for regime, ceiling in _CEILINGS_NS.items():
                measured = fastpath["regimes"][regime]["ns_per_call"]
                limit = ceiling * scale
                if measured > limit:
                    print(
                        f"FAIL: {regime} costs {measured:.0f} ns/call "
                        f"(> {limit:.0f} ns ceiling at scale {scale:.2f})"
                    )
                    return 1
        print(
            f"check OK: {label} {speedup:.2f}x over reference; "
            f"disabled probe {base:.0f} ns/call"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
