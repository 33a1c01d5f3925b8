"""``t_quantile``: the stdlib Student's t critical value behind Eq. 2.

It replaced ``scipy.stats.t.ppf`` so that ``scrubd`` imports neither
scipy nor numpy; scipy stays a test dependency only, to pin it here.
``scipy.special.stdtrit(df, p)`` is the t quantile at lower-tail
probability ``p``; the two-sided critical value at confidence ``c`` is
``stdtrit(df, (1 + c) / 2)``.
"""

from __future__ import annotations

import random

import pytest
from scipy.special import stdtrit

from repro.core.approx import sampling_theory
from repro.core.approx.sampling_theory import t_quantile

CONFIDENCES = [0.5, 0.5001, 0.6, 0.68, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9995, 0.9999]
DFS = [*range(1, 201), 250, 300, 500, 750, 1000, 2000, 3000, 5000, 7500, 9999, 10_000]


def _rel(df: float, confidence: float) -> float:
    expected = float(stdtrit(df, (1.0 + confidence) / 2.0))
    return abs(t_quantile(confidence, df) - expected) / expected


def test_matches_stdtrit_on_grid():
    worst = max((_rel(df, c), df, c) for df in DFS for c in CONFIDENCES)
    assert worst[0] <= 1e-10, worst


def test_matches_stdtrit_at_random_points():
    rng = random.Random(20180423)
    points = [(rng.randint(1, 10_000), rng.uniform(0.5, 0.9999)) for _ in range(1500)]
    worst = max((_rel(df, c), df, c) for df, c in points)
    assert worst[0] <= 1e-10, worst


@pytest.mark.parametrize("df", [10**5, 10**6, 10**9])
def test_fleet_sized_df(df):
    """Fleets can have 1e5 hosts: still accurate, and the work is the
    continued fraction's few dozen terms, not a loop over df."""
    calls = 0
    fraction = sampling_theory._beta_fraction

    def counted(*args):
        nonlocal calls
        calls += 1
        return fraction(*args)

    sampling_theory.t_quantile.cache_clear()
    sampling_theory._beta_fraction = counted
    try:
        for c in (0.5, 0.95, 0.9999):
            assert _rel(df, c) <= 1e-7
    finally:
        sampling_theory._beta_fraction = fraction
        sampling_theory.t_quantile.cache_clear()
    assert calls <= 3 * 8


def test_closed_forms_and_large_df():
    assert t_quantile(0.5, 1) == pytest.approx(1.0, rel=1e-15)  # tan(π/4)
    assert t_quantile(0.95, 2) == pytest.approx(4.302652729749464, rel=1e-14)
    assert t_quantile(0.95, 10**9) == pytest.approx(1.959963984540054, rel=1e-7)


def test_is_cached():
    t_quantile.cache_clear()
    t_quantile(0.95, 7)
    t_quantile(0.95, 7)
    assert t_quantile.cache_info().hits == 1


@pytest.mark.parametrize("confidence,df", [(0.0, 5), (1.0, 5), (-0.1, 5), (0.95, 0), (0.95, 0.5)])
def test_rejects_out_of_domain(confidence, df):
    with pytest.raises(ValueError):
        t_quantile(confidence, df)
