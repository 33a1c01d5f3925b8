"""E13 — probabilistic aggregate accuracy & throughput (TOP-K, HLL).

Scrub trades exactness for bounded memory in its probabilistic
aggregates (paper §3.2): TOP-K via the Space-Saving summary [36] and
COUNT_DISTINCT via HyperLogLog [27].  These benchmarks measure:

* TOP-K recall and count error against exact counting on Zipf streams
  of varying skew (heavy hitters exist at high skew, barely at low);
* HLL relative error across cardinalities against the theoretical
  1.04/sqrt(m) standard error;
* single-core update throughput for both sketches (they run per event
  at ScrubCentral, so they must be cheap).
"""

import random
import statistics
import time
from collections import Counter

import pytest

from repro.core.approx import HyperLogLog, SpaceSaving
from repro.reporting import ExperimentReport


def zipf_stream(n, universe, alpha, seed):
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** alpha for i in range(universe)]
    return rng.choices(range(universe), weights=weights, k=n)


def test_topk_accuracy_vs_exact(benchmark):
    def run():
        rows = []
        k = 10
        for alpha in (1.5, 1.1, 0.8):
            stream = zipf_stream(50_000, 5_000, alpha, seed=13)
            truth = Counter(stream)
            true_top = [item for item, _count in truth.most_common(k)]
            summary = SpaceSaving(capacity=k * 10)
            summary.update(stream)
            reported = summary.top(k)
            recall = len({t.item for t in reported} & set(true_top)) / k
            max_rel_err = max(
                (t.count - truth[t.item]) / max(truth[t.item], 1)
                for t in reported
            )
            rows.append([alpha, f"{recall * 100:.0f}%", f"{max_rel_err * 100:.1f}%",
                         len(summary)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report = ExperimentReport(
        "E13_sketches_topk",
        "Space-Saving TOP-10 vs exact on Zipf streams (50k events, capacity 100)",
    )
    report.table(
        "recall and worst count overestimate",
        ["zipf alpha", "recall@10", "max count error", "counters kept"],
        rows,
    )
    report.emit()
    by_alpha = {r[0]: r for r in rows}
    # High skew: perfect recall, tiny error.
    assert by_alpha[1.5][1] == "100%"
    # Recall degrades gracefully as the distribution flattens but the
    # memory stays fixed at the 100-counter capacity.
    assert all(r[3] <= 100 for r in rows)
    assert float(by_alpha[0.8][1].rstrip("%")) >= 50.0


def test_hll_error_vs_theory(benchmark):
    def run():
        rows = []
        for true_n in (100, 1_000, 10_000, 100_000):
            hll = HyperLogLog(precision=12)
            for i in range(true_n):
                hll.add(f"user-{i}")
            estimate = hll.count()
            rel = abs(estimate - true_n) / true_n
            rows.append([true_n, estimate, f"{rel * 100:.2f}%",
                         f"{hll.standard_error * 100:.2f}%"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report = ExperimentReport(
        "E13_sketches_hll",
        "HyperLogLog (p=12, 4 KiB) estimate vs true cardinality",
    )
    report.table(
        "relative error vs theoretical standard error",
        ["true distinct", "estimate", "rel. error", "1.04/sqrt(m)"],
        rows,
    )
    report.emit()
    for row in rows:
        rel = float(row[2].rstrip("%")) / 100
        sigma = float(row[3].rstrip("%")) / 100
        assert rel < 5 * sigma


def _rate(update_all, items, rounds=20):
    """Items per second, from the median of *rounds* timed calls (timed
    here, so the figure exists with pytest-benchmark disabled too)."""
    seconds = []
    for _ in range(rounds):
        start = time.perf_counter()
        update_all()
        seconds.append(time.perf_counter() - start)
    return items / statistics.median(seconds)


@pytest.mark.benchmark(group="sketch-throughput")
def test_spacesaving_update_rate(benchmark):
    stream = zipf_stream(10_000, 2_000, 1.2, seed=7)
    summary = SpaceSaving(capacity=100)

    def update_all():
        summary.update(stream)

    rate = benchmark.pedantic(_rate, args=(update_all, len(stream)), rounds=1, iterations=1)
    assert rate > 200_000  # events/s on one core


@pytest.mark.benchmark(group="sketch-throughput")
def test_hll_update_rate(benchmark):
    items = [f"user-{i % 5_000}" for i in range(10_000)]
    hll = HyperLogLog(precision=12)

    def update_all():
        hll.update(items)

    rate = benchmark.pedantic(_rate, args=(update_all, len(items)), rounds=1, iterations=1)
    assert rate > 200_000
