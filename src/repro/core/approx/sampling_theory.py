"""Multi-stage sampling estimators and error bounds (paper Eqs. 1–3).

Scrub samples at two levels — machines, and events within each chosen
machine — and, like ApproxHadoop, derives error bounds from two-stage
cluster-sampling theory.  For an approximate SUM it randomly selects
``n`` of ``N`` machines and ``m_i`` of ``M_i`` events at machine ``i``:

    τ̂ = (N/n) · Σ_i ( (M_i/m_i) · Σ_j v_ij )                    (Eq. 1)
    ε = t_{n-1, 1-α/2} · sqrt(V̂ar(τ̂))                           (Eq. 2)
    V̂ar(τ̂) = N(N-n)·s_u²/n + (N/n)·Σ_i M_i(M_i-m_i)·s_i²/m_i    (Eq. 3)

where ``s_i²`` is the sample variance of readings at machine ``i`` and
``s_u²`` the sample variance of the per-machine estimated totals
``τ̂_i = (M_i/m_i)·Σ_j v_ij``.  The first variance term captures
machine-stage sampling error (it vanishes when every machine is
queried, n = N); the second captures event-stage error (it vanishes
when every event is kept, m_i = M_i).

The host agent reports, per flush, how many matching events it *saw*
(``M_i``) alongside the sampled values it shipped, which is exactly the
bookkeeping these estimators need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "MachineSample",
    "ApproxEstimate",
    "estimate_sum",
    "estimate_count",
    "estimate_avg",
    "t_quantile",
]


# -- Student's t quantile -------------------------------------------------------
#
# Eq. 2 needs t_{n-1, 1-α/2}.  It is computed here from the stdlib alone:
# Hill's asymptotic inverse (ACM Algorithm 396, 1970) gives a start within
# 5e-4 relative for df >= 3, and Newton steps on the log upper tail finish
# it (df 1 and 2 have closed forms).  The tail
# is the regularized incomplete beta function, evaluated by its continued
# fraction (modified Lentz), which converges in at most a few dozen terms
# for every df at the tail probabilities a confidence level asks for, so
# the cost does not grow with the fleet size.


def _log_gamma_half_ratio(a: float) -> float:
    """ln Γ(a + 1/2) - ln Γ(a), without cancellation for large *a*."""
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv = 1.0 / a
    inv2 = inv * inv
    # Asymptotic series; the first omitted term is below 1e-18 at a = 50.
    return 0.5 * math.log(a) - inv * (
        0.125 - inv2 * (1.0 / 192.0 - inv2 * (1.0 / 640.0 - inv2 * (17.0 / 14336.0)))
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b)
    (modified Lentz); converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _t_log_upper_tail(t: float, df: float) -> float:
    """ln P(T > t) for Student's t with *df* degrees of freedom, t >= 0."""
    a = 0.5 * df
    r = t * t / df
    log_x = -math.log1p(r)  # x = df / (df + t²), the beta argument
    log_y = math.log(r) + log_x  # y = 1 - x = t² / (df + t²)
    # ln(x^a · y^(1/2) / B(a, 1/2)), with ln Γ(1/2) = ln √π.
    log_front = a * log_x + 0.5 * log_y - 0.5 * math.log(math.pi) + _log_gamma_half_ratio(a)
    x = math.exp(log_x)
    if x < (a + 1.0) / (a + 2.5):
        return math.log(0.5 / a) + log_front + math.log(_beta_fraction(a, 0.5, x))
    y = math.exp(log_y)
    return math.log(0.5 * (1.0 - 2.0 * math.exp(log_front) * _beta_fraction(0.5, a, y)))


def _t_log_density(t: float, df: float) -> float:
    a = 0.5 * df
    return (
        _log_gamma_half_ratio(a)
        - 0.5 * math.log(df * math.pi)
        - (a + 0.5) * math.log1p(t * t / df)
    )


def _normal_lower_quantile(p: float) -> float:
    """A start-quality normal quantile for p <= 0.5 (|error| < 4.5e-4;
    Abramowitz & Stegun 26.2.23)."""
    s = math.sqrt(-2.0 * math.log(p))
    return -(
        s
        - (2.515517 + s * (0.802853 + s * 0.010328))
        / (1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    )


def _hill_start(two_tail: float, df: float) -> float:
    """Hill's (1970) approximate t quantile for two-tailed probability
    *two_tail*; the Newton start."""
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * two_tail) ** (2.0 / df)
    if y > 0.05 + a:
        x = _normal_lower_quantile(0.5 * two_tail)
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
             + 0.5 / (df + 4.0)) * y - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


@lru_cache(maxsize=1024)
def t_quantile(confidence: float, df: float) -> float:
    """Two-sided Student's t critical value ``t_{df, 1-α/2}`` for
    ``confidence = 1 - α``: the t distribution's quantile at ``1 - α/2``,
    within 1e-12 relative up to df = 10⁵.  Rounding in the
    continued fraction grows with df: about 1e-8 relative at df = 10⁹."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not df >= 1:
        raise ValueError(f"df must be >= 1, got {df}")
    two_tail = 1.0 - confidence
    if df == 1:
        return math.tan(math.pi / 2.0 * confidence)
    if df == 2:
        return math.sqrt(2.0 / (two_tail * (2.0 - two_tail)) - 2.0)
    log_target = math.log(0.5 * two_tail)
    t = _hill_start(two_tail, df)
    last = math.inf
    for _ in range(50):
        # Newton on ln P(T > t) - ln(α/2): d/dt ln P(T > t) = -f(t) / P(T > t).
        log_tail = _t_log_upper_tail(t, df)
        step = (log_tail - log_target) * math.exp(log_tail - _t_log_density(t, df))
        if abs(step) >= last:
            # At the rounding floor of the tail: steps no longer shrink.
            return t
        t += step
        last = abs(step)
        if last <= 1e-15 * t:
            return t
    raise ArithmeticError(f"t quantile did not converge (confidence={confidence}, df={df})")


@dataclass(frozen=True)
class MachineSample:
    """Per-machine sampling summary for one window.

    ``machine_total`` is M_i — how many events matched the query's
    selection on the machine; ``count`` is m_i — how many of those were
    actually sampled/shipped; ``total``/``sum_sq`` summarise the shipped
    values so the variance s_i² can be computed without retaining them.
    """

    machine_total: int
    count: int
    total: float
    sum_sq: float

    def __post_init__(self) -> None:
        if self.machine_total < 0:
            raise ValueError("machine_total must be non-negative")
        if not 0 <= self.count <= max(self.machine_total, self.count):
            raise ValueError("sample count must be non-negative")
        if self.count > self.machine_total:
            raise ValueError(
                f"sampled {self.count} events but machine only saw {self.machine_total}"
            )

    @classmethod
    def from_values(cls, machine_total: int, values: Sequence[float]) -> "MachineSample":
        values = [float(v) for v in values]
        return cls(
            machine_total=machine_total,
            count=len(values),
            total=sum(values),
            sum_sq=sum(v * v for v in values),
        )

    @property
    def estimated_total(self) -> float:
        """τ̂_i = (M_i / m_i) · Σ_j v_ij; 0 when nothing was sampled."""
        if self.count == 0:
            return 0.0
        return (self.machine_total / self.count) * self.total

    @property
    def value_variance(self) -> float:
        """Sample variance s_i² of the shipped readings (0 if m_i < 2)."""
        m = self.count
        if m < 2:
            return 0.0
        mean = self.total / m
        # Numerically-guarded n-1 variance from the running sums.
        var = (self.sum_sq - m * mean * mean) / (m - 1)
        return max(var, 0.0)


@dataclass(frozen=True)
class ApproxEstimate:
    """An approximate aggregate with its confidence interval."""

    estimate: float
    error_bound: float  # ε: half-width of the CI; inf when n < 2
    confidence: float
    variance: float
    sampled_machines: int
    total_machines: int
    #: Machine-stage unit variance (s_u² of per-machine estimated totals,
    #: Eq. 3's first factor without the N(N-n)/n population scaling).
    #: Carried so a controller can *invert* the bound: the predicted
    #: machine-stage variance at n' of N sampled hosts is
    #: ``N·(N-n')·machine_dispersion/n'`` — well-defined even when the
    #: observed window ran at n = N, where the realized term is zero.
    machine_dispersion: float = 0.0
    #: Event-stage unit variance ((N/n)·Σ_i M_i·s_i², Eq. 3's second
    #: term with the per-machine keep fraction divided out): predicted
    #: event-stage variance at event rate r is
    #: ``value_dispersion·(1/r - 1)`` — well-defined even at r = 1.
    value_dispersion: float = 0.0
    #: Σ m_i — events actually summarised into this estimate.
    sample_events: int = 0

    @property
    def low(self) -> float:
        return self.estimate - self.error_bound

    @property
    def high(self) -> float:
        return self.estimate + self.error_bound

    @property
    def relative_error(self) -> float:
        """ε / estimate; inf for a zero estimate with non-zero bound."""
        if self.estimate == 0:
            return 0.0 if self.error_bound == 0 else math.inf
        return abs(self.error_bound / self.estimate)

    def __str__(self) -> str:
        pct = self.confidence * 100
        return f"{self.estimate:.6g} ± {self.error_bound:.6g} ({pct:.0f}% CI)"

    def widened(self, shed_fraction: float) -> "ApproxEstimate":
        """Inflate the CI for governor shedding (load-shed events).

        Eqs. 1–3 assume the event stage is a *random* sample of the M_i
        matched events.  Shedding breaks that: during an over-budget
        interval the agent drops every matched event, so the retained
        values are time-biased, not random.  The honest response is a
        wider bound: with a fraction ``f`` of matched events shed, the
        half-width is scaled by ``1/(1-f)`` (and the variance by its
        square) — bounds degrade smoothly toward "no information" as
        shedding approaches 100%.  The point estimate is untouched: it
        is still the best available value, just less certain.
        """
        if shed_fraction <= 0.0:
            return self
        if shed_fraction >= 1.0 or not math.isfinite(self.error_bound):
            return replace(self, error_bound=math.inf, variance=math.inf)
        scale = 1.0 / (1.0 - shed_fraction)
        return replace(
            self,
            error_bound=self.error_bound * scale,
            variance=self.variance * scale * scale,
        )


def estimate_sum(
    samples: Iterable[MachineSample],
    total_machines: int,
    confidence: float = 0.95,
) -> ApproxEstimate:
    """Approximate SUM with its error bound (paper Eqs. 1–3)."""
    samples = list(samples)
    n = len(samples)
    big_n = total_machines
    if big_n < n:
        raise ValueError(f"total_machines ({big_n}) < sampled machines ({n})")
    if n == 0:
        return ApproxEstimate(0.0, math.inf, confidence, math.inf, 0, big_n)

    machine_estimates = [s.estimated_total for s in samples]
    tau_hat = (big_n / n) * sum(machine_estimates)

    # Machine-stage variance term: N(N-n) s_u² / n.
    if n >= 2:
        mean_u = sum(machine_estimates) / n
        s_u_sq = sum((u - mean_u) ** 2 for u in machine_estimates) / (n - 1)
    else:
        s_u_sq = 0.0
    machine_term = big_n * (big_n - n) * s_u_sq / n

    # Event-stage variance term: (N/n) Σ M_i (M_i - m_i) s_i² / m_i.
    event_term = 0.0
    for s in samples:
        if s.count > 0:
            event_term += s.machine_total * (s.machine_total - s.count) * (
                s.value_variance / s.count
            )
    event_term *= big_n / n

    variance = machine_term + event_term

    # Rate-invertible dispersion telemetry for the sampling controller.
    # Kept even in the exact (full-rate) branches below: a window run at
    # full rates has zero realized error but its dispersions still
    # predict the error any *lower* candidate rate would incur.
    value_dispersion = (big_n / n) * sum(
        s.machine_total * s.value_variance for s in samples
    )
    sample_events = sum(s.count for s in samples)

    if n >= 2:
        epsilon = t_quantile(confidence, n - 1) * math.sqrt(max(variance, 0.0))
    elif big_n == 1 and samples[0].count == samples[0].machine_total:
        # Exhaustive single-machine reading: exact.
        epsilon = 0.0
    else:
        epsilon = math.inf
    if big_n == n and all(s.count == s.machine_total for s in samples):
        # No sampling anywhere: the estimate is exact.
        epsilon = 0.0
        variance = 0.0
    return ApproxEstimate(
        tau_hat,
        epsilon,
        confidence,
        variance,
        n,
        big_n,
        machine_dispersion=s_u_sq,
        value_dispersion=value_dispersion,
        sample_events=sample_events,
    )


def estimate_count(
    machine_match_counts: Iterable[int],
    total_machines: int,
    confidence: float = 0.95,
    event_sampling_rate: float = 1.0,
) -> ApproxEstimate:
    """Approximate COUNT over sampled machines.

    COUNT is the SUM of v_ij = 1 over matching events, and the agent
    counts *every* matching event it sees (counting is cheap; only
    shipping is sampled), so there is no event-stage error: each
    machine's contribution M_i is known exactly and only the machine
    stage contributes variance.  When the caller only knows the shipped
    counts (it did not receive per-machine totals), pass the event
    sampling rate to scale up — the event-stage error is then folded
    into the machine-stage term because scaled per-machine counts vary.
    """
    machine_match_counts = list(machine_match_counts)
    totals = [c / event_sampling_rate for c in machine_match_counts]
    samples = [
        MachineSample(machine_total=math.ceil(t), count=0, total=0.0, sum_sq=0.0)
        for t in totals
    ]
    # Reuse the SUM machinery with exact per-machine totals.
    n = len(samples)
    big_n = total_machines
    if big_n < n:
        raise ValueError(f"total_machines ({big_n}) < sampled machines ({n})")
    if n == 0:
        return ApproxEstimate(0.0, math.inf, confidence, math.inf, 0, big_n)
    tau_hat = (big_n / n) * sum(totals)
    if n >= 2:
        mean_u = sum(totals) / n
        s_u_sq = sum((u - mean_u) ** 2 for u in totals) / (n - 1)
    else:
        s_u_sq = 0.0
    variance = big_n * (big_n - n) * s_u_sq / n
    if n >= 2:
        epsilon = t_quantile(confidence, n - 1) * math.sqrt(max(variance, 0.0))
    else:
        epsilon = 0.0 if (big_n == n and event_sampling_rate == 1.0) else math.inf
    if big_n == n and event_sampling_rate == 1.0:
        epsilon = 0.0
        variance = 0.0
    # COUNT has no event-stage error (M_i is counted exactly at any event
    # rate), so value_dispersion stays 0: the controller learns that
    # lowering the event rate cannot widen a COUNT bound.
    return ApproxEstimate(
        tau_hat,
        epsilon,
        confidence,
        variance,
        n,
        big_n,
        machine_dispersion=s_u_sq,
        value_dispersion=0.0,
        sample_events=sum(int(c) for c in machine_match_counts),
    )


def estimate_avg(
    sum_estimate: ApproxEstimate, count_estimate: ApproxEstimate
) -> ApproxEstimate:
    """Ratio estimator for AVG = SUM/COUNT.

    The error bound uses first-order (delta-method) propagation,
    treating the two estimates as independent — adequate for the
    troubleshooting accuracy Scrub targets (Section 2 explicitly trades
    accuracy for host impact).
    """
    if count_estimate.estimate == 0:
        return ApproxEstimate(
            0.0,
            math.inf,
            sum_estimate.confidence,
            math.inf,
            sum_estimate.sampled_machines,
            sum_estimate.total_machines,
        )
    ratio = sum_estimate.estimate / count_estimate.estimate
    rel_sq = 0.0
    if sum_estimate.estimate != 0 and math.isfinite(sum_estimate.error_bound):
        rel_sq += (sum_estimate.error_bound / sum_estimate.estimate) ** 2
    elif not math.isfinite(sum_estimate.error_bound):
        rel_sq = math.inf
    if math.isfinite(count_estimate.error_bound):
        rel_sq += (count_estimate.error_bound / count_estimate.estimate) ** 2
    else:
        rel_sq = math.inf
    epsilon = abs(ratio) * math.sqrt(rel_sq) if math.isfinite(rel_sq) else math.inf
    # Propagate the dispersions through the same delta method so the
    # prediction formulas (N(N-n')·md/n' and vd·(1/r-1)) stay valid for
    # AVG with the ratio's own scale: rel-var(avg) = rel-var(sum) +
    # rel-var(count), both machine terms scale identically in n', and
    # only the SUM contributes event-stage error.
    machine_dispersion = 0.0
    value_dispersion = 0.0
    if sum_estimate.estimate != 0:
        scale_s = (ratio / sum_estimate.estimate) ** 2
        machine_dispersion += scale_s * sum_estimate.machine_dispersion
        value_dispersion = scale_s * sum_estimate.value_dispersion
    scale_c = (ratio / count_estimate.estimate) ** 2
    machine_dispersion += scale_c * count_estimate.machine_dispersion
    return ApproxEstimate(
        ratio,
        epsilon,
        sum_estimate.confidence,
        epsilon ** 2,
        sum_estimate.sampled_machines,
        sum_estimate.total_machines,
        machine_dispersion=machine_dispersion,
        value_dispersion=value_dispersion,
        sample_events=sum_estimate.sample_events,
    )
