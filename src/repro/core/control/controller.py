"""The CI-targeted sampling-rate controller.

A ``TARGET CI ±x%`` query asks Scrub to *close the loop* on accuracy:
instead of the troubleshooter guessing sampling rates, the server
observes each window's realized error bound and retunes the rates so
the confidence interval converges to the target at the lowest possible
host impact.  The controller here is the decision core — engine-free
and synchronous, like ``fleet.QueryRollout``; the control plane drives
it from its ``tick``.

**Inputs** (fed by the hosting server):

* per-window estimator telemetry (:meth:`SamplingController.observe_window`)
  — the ``ApproxEstimate`` dispersions that make Eqs. 1-3 invertible:
  ``machine_dispersion`` (s_u², the machine-stage unit variance) and
  ``value_dispersion`` ((N/n)·Σ M_i·s_i², the event-stage unit
  variance).  Both are well-defined even in a window run at *full*
  rates, so the controller can start wide-open and predict what any
  cheaper rate pair would have cost in accuracy;
* per-host cost telemetry (:meth:`SamplingController.observe_costs`)
  — the ``query_costs`` counters (``ewma_ns``/``routed``) that ride
  agent heartbeats, plus each host's applied ``rates_version``.

**The solve.**  For a candidate pair of n' sampled hosts (of N) at
event rate r', the predicted variance follows directly from Eq. 3:

    V̂ar(n', r') = N·(N-n')·machine_dispersion / n'
                 + value_dispersion · (1/r' - 1)

and the predicted relative half-width is ``t_{n'-1}·sqrt(V̂ar)/|τ̂|``
(Eq. 2).  The controller scans a geometric rate ladder and picks the
feasible pair minimizing normalized cost ``(n'/N)·r'``.  Dispersions
are EWMA-smoothed across windows so one noisy window cannot whipsaw
the rates.

**Robustness rules** (the reason this is a controller and not a
formula):

* *deadband* — the solver aims at ``target·(1-deadband)``; any pair
  whose prediction lands in ``[aim, target]`` is left alone, so the
  loop cannot oscillate around the setpoint;
* *hysteresis* — a tighten/relax decision must repeat for
  ``hysteresis_windows`` consecutive windows before a retune ships;
* *monotone application* — event-rate changes go to the keyed
  threshold sampler (``agent.sampling.EventSampler``), whose kept sets
  are nested across rates, so a retune never reshuffles which requests
  are being watched;
* *budget clamp* — per-host projected wall cost (``ewma_ns ×
  routed/s``) is held under ``budget_safety`` (80%) of the governor's
  ``ImpactBudget``, so the controller backs off *before* the
  governor's thin → shed → quarantine ladder engages.  A clamp applies
  immediately (no hysteresis — it is the safety direction).  If the
  clamped rates cannot meet the target, the controller degrades
  honestly: state ``rate_limited`` with a structured reason and the
  *achievable* widened bound;
* *starvation guard* — a window that kept fewer than
  ``min_telemetry_events`` events measures its dispersions from a
  handful of samples that routinely miss the value tail entirely; such
  a window may only move the variance model *upward*.  Without this, a
  deeply clamped query would talk itself into believing its target is
  suddenly achievable (collapsed dispersions → tiny predicted error)
  and silently drop the ``rate_limited`` report;
* *freeze* — stale telemetry (no window for ``stale_after_windows``),
  a host that does not report an applied ``rates_version`` (a
  pre-controller agent), or a retune that never converges all freeze
  the loop: no retunes are issued until the inputs recover.  A frozen
  controller never flies blind.

The solver holds the host count n' fixed and retunes the event rate
only.  A query's host set grows by one mechanism — the control plane's
``_join_query``, used by late-joining agents and rollout widening, which
keeps ``total_hosts`` / ``host_count`` here in step — and is never
shrunk mid-query (the engine's coverage accounting would count the
removed hosts as missing, and the finite-population correction would be
wrong for already-open windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..agent.governor import ImpactBudget
from ..approx.sampling_theory import t_quantile
from ..central.results import WindowResult
from ..query.ast import TargetCISpec

__all__ = [
    "STATE_WARMUP",
    "STATE_TRACKING",
    "STATE_RATE_LIMITED",
    "STATE_FROZEN",
    "ControllerConfig",
    "RateUpdate",
    "SamplingController",
]

#: No window telemetry yet — the query is still wide-open at its
#: submitted rates and the controller has nothing to invert.
STATE_WARMUP = "warmup"
#: Converged or converging: retunes keep the predicted CI in the
#: deadband below the target.
STATE_TRACKING = "tracking"
#: The impact budget (or rate floor, or host ceiling) prevents meeting
#: the target; rates are clamped and the reported bound is widened.
STATE_RATE_LIMITED = "rate_limited"
#: Inputs went bad (stale windows, version-less or non-converging
#: hosts); the loop holds the last applied rates and issues nothing.
STATE_FROZEN = "frozen"


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning constants; the defaults are documented in SCALING.md."""

    #: Fractional dead zone below the target: the solver aims at
    #: ``target·(1-deadband)`` and leaves alone anything in between.
    deadband: float = 0.10
    #: Consecutive windows a tighten/relax verdict must repeat before a
    #: retune is issued (clamps bypass this).
    hysteresis_windows: int = 2
    #: Freeze when no window telemetry arrives for this many window
    #: lengths.
    stale_after_windows: float = 3.0
    #: Clamp line as a fraction of the governor's wall budget — the
    #: controller backs off at 80% so the governor's ladder never fires.
    budget_safety: float = 0.8
    #: Hard floor for the event rate (1/1024 keeps the keyed sampler's
    #: threshold meaningful and the estimator's m_i non-degenerate).
    min_event_rate: float = 1.0 / 1024.0
    #: Relax only when the cheapest feasible pair costs at least this
    #: fraction less than the current pair.
    relax_margin: float = 0.20
    #: EWMA smoothing for the per-column dispersion telemetry.
    telemetry_alpha: float = 0.5
    #: Geometric step of the event-rate ladder (√½ ≈ 0.707 gives two
    #: steps per halving — fine enough to land in the deadband).
    ladder_step: float = 0.5 ** 0.5
    #: Freeze when an issued retune is still unconfirmed by some host
    #: after this many window lengths.
    convergence_grace_windows: float = 4.0
    #: Ignore clamps that would move the event rate by less than this
    #: relative amount (retune traffic is not free).
    clamp_jitter: float = 0.05
    #: Windows that kept fewer events than this are *starved*: their
    #: dispersion measurements may only raise the variance model, never
    #: lower it, and they do not update the achieved-error figure.
    min_telemetry_events: int = 32


@dataclass(frozen=True)
class RateUpdate:
    """One versioned retune, to be fanned out over the INSTALL path."""

    query_id: str
    version: int
    host_rate: float
    event_rate: float
    #: Absolute host count the host_rate corresponds to (n').
    host_count: int
    #: Why this retune shipped: "tighten" / "relax" / "clamp".
    reason: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "host_rate": self.host_rate,
            "event_rate": self.event_rate,
            "host_count": self.host_count,
            "reason": self.reason,
        }


class _ColumnStat:
    """EWMA-smoothed invertible telemetry for one estimable column."""

    __slots__ = ("abs_tau", "machine_dispersion", "value_dispersion")

    def __init__(self, abs_tau: float, md: float, vd: float) -> None:
        self.abs_tau = abs_tau
        self.machine_dispersion = md
        self.value_dispersion = vd

    def update(self, abs_tau: float, md: float, vd: float, alpha: float) -> None:
        self.abs_tau += alpha * (abs_tau - self.abs_tau)
        self.machine_dispersion += alpha * (md - self.machine_dispersion)
        self.value_dispersion += alpha * (vd - self.value_dispersion)

    def update_upward(self, md: float, vd: float, alpha: float) -> None:
        """Starved-window update: dispersions may only rise (bad news is
        always believed), and the scale estimate is left alone."""
        if md > self.machine_dispersion:
            self.machine_dispersion += alpha * (md - self.machine_dispersion)
        if vd > self.value_dispersion:
            self.value_dispersion += alpha * (vd - self.value_dispersion)


class SamplingController:
    """Closed-loop rate controller for one ``TARGET CI`` query."""

    def __init__(
        self,
        query_id: str,
        target: TargetCISpec,
        *,
        total_hosts: int,
        targeted_hosts: int,
        window_seconds: float,
        event_rate: float = 1.0,
        budget: Optional[ImpactBudget] = None,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        if total_hosts < 1 or targeted_hosts < 1:
            raise ValueError("controller needs at least one planned and targeted host")
        if targeted_hosts > total_hosts:
            raise ValueError(
                f"targeted hosts ({targeted_hosts}) > planned hosts ({total_hosts})"
            )
        self.query_id = query_id
        self.target = target
        self.total_hosts = int(total_hosts)
        self.host_count = int(targeted_hosts)
        self.window_seconds = float(window_seconds)
        self.event_rate = float(event_rate)
        #: The governor budget the clamp respects; reassignable mid-run
        #: (operations may tighten it while the query is live).
        self.budget = budget
        self.config = config if config is not None else ControllerConfig()
        #: Version of the last issued retune; 0 = install-time rates.
        self.version = 0

        self._columns: dict[str, _ColumnStat] = {}
        self._windows_observed = 0
        self._evaluated_windows = 0
        self._last_window_at: Optional[float] = None
        self._achieved: Optional[float] = None
        self._predicted: Optional[float] = None
        self._state = STATE_WARMUP
        self._frozen_reason: Optional[str] = None
        self._limited: Optional[dict[str, Any]] = None
        self._last_update_reason = "install"
        self._pending_direction: Optional[str] = None
        self._pending_streak = 0
        self._version_issued_at: Optional[float] = None
        # Per-host cost tracking: host -> (last_routed, last_at, wall_ewma_s).
        self._host_cost: dict[str, tuple[int, float, float]] = {}
        self._host_versions: dict[str, Optional[int]] = {}

    # -- telemetry intake ------------------------------------------------------

    def observe_window(self, window: WindowResult, at: float) -> None:
        """Feed one closed window's estimator telemetry."""
        self._windows_observed += 1
        self._last_window_at = at
        achieved: Optional[float] = None
        alpha = self.config.telemetry_alpha
        for name, est in window.estimates.items():
            starved = est.sample_events < self.config.min_telemetry_events
            rel = est.relative_error
            if not starved and (achieved is None or rel > achieved):
                achieved = rel
            abs_tau = abs(est.estimate)
            if abs_tau == 0.0:
                # A zero estimate has no relative-error scale; keep the
                # previous telemetry rather than dividing by nothing.
                continue
            stat = self._columns.get(name)
            if stat is None:
                # Bootstrap accepts anything: with no model at all, a
                # starved measurement still beats flying blind.
                self._columns[name] = _ColumnStat(
                    abs_tau, est.machine_dispersion, est.value_dispersion
                )
            elif starved:
                stat.update_upward(
                    est.machine_dispersion, est.value_dispersion, alpha
                )
            else:
                stat.update(
                    abs_tau, est.machine_dispersion, est.value_dispersion, alpha
                )
        if achieved is not None:
            self._achieved = achieved

    def observe_costs(
        self, host_costs: Mapping[str, Mapping[str, Any]], at: float
    ) -> None:
        """Feed per-host ``query_costs`` counters for this query.

        *host_costs* maps host name to the agent's counters
        (``ewma_ns``, cumulative ``routed``, and — from
        controller-aware agents — the applied ``rates_version``).
        """
        for host, counters in host_costs.items():
            self._host_versions[host] = counters.get("rates_version")
            routed = int(counters.get("routed", 0))
            ewma_ns = float(counters.get("ewma_ns", 0.0) or 0.0)
            prev = self._host_cost.get(host)
            if prev is None:
                self._host_cost[host] = (routed, at, 0.0)
                continue
            last_routed, last_at, wall_ewma = prev
            dt = at - last_at
            if dt <= 0.0:
                continue
            routed_per_sec = max(routed - last_routed, 0) / dt
            interval = (
                self.budget.interval_seconds if self.budget is not None else 1.0
            )
            wall = ewma_ns * 1e-9 * routed_per_sec * interval
            wall_ewma += 0.5 * (wall - wall_ewma)
            self._host_cost[host] = (routed, at, wall_ewma)

    def forget_host(self, host: str) -> None:
        """Drop a departed host's cost/version telemetry (age-out or
        disconnect) so it cannot freeze the loop forever."""
        self._host_cost.pop(host, None)
        self._host_versions.pop(host, None)

    # -- the control step ------------------------------------------------------

    def tick(self, now: float) -> Optional[RateUpdate]:
        """Run one control evaluation; returns a retune to apply, or None.

        The caller owns application: fan the update out over its INSTALL
        path (and journal it) — the controller already advanced its own
        version and considers the update in flight until every host's
        heartbeat confirms it.
        """
        if self._windows_observed == 0:
            self._state = STATE_WARMUP
            return None

        freeze = self._freeze_reason(now)
        if freeze is not None:
            self._state = STATE_FROZEN
            self._frozen_reason = freeze
            return None
        self._frozen_reason = None

        # An issued retune still propagating blocks further moves (the
        # solver would be reasoning about rates the fleet isn't at yet);
        # within the grace window this is normal convergence, past it
        # the freeze check above has already tripped.
        converging = any(
            v is not None and v < self.version
            for v in self._host_versions.values()
        )

        cap = self._event_rate_cap()

        # Safety first: a budget clamp applies immediately, without
        # hysteresis and even mid-convergence — by the time the
        # governor would start shedding, the controller must already
        # have backed off.
        if cap < self.event_rate * (1.0 - self.config.clamp_jitter):
            update = self._issue(now, self.host_count, max(cap, self.config.min_event_rate), "clamp")
            self._refresh_limited(cap)
            return update

        if not self._columns:
            # Windows arrived but every estimate was zero-valued; there
            # is no scale to solve against yet.
            self._state = STATE_WARMUP
            return None

        best = self._solve(cap)
        predicted_current = self._predict(self.host_count, self.event_rate)
        self._predicted = predicted_current
        self._refresh_limited(cap, best)
        if converging:
            return None

        # Hysteresis is counted in windows, not ticks.
        if self._windows_observed == self._evaluated_windows:
            return None
        self._evaluated_windows = self._windows_observed

        if best is None:
            # Nothing feasible even unclamped: already at the widest
            # rates we may apply; _refresh_limited has set the state.
            return None

        best_n, best_r = best
        direction: Optional[str] = None
        target = self.target.relative_error
        cur_cost = self._cost(self.host_count, self.event_rate)
        best_cost = self._cost(best_n, best_r)
        if predicted_current > target:
            direction = "tighten"
        elif best_cost < cur_cost * (1.0 - self.config.relax_margin):
            direction = "relax"

        if direction is None:
            # In the deadband: predicted CI meets the target and no
            # materially cheaper pair exists.
            self._pending_direction = None
            self._pending_streak = 0
            return None

        if direction != self._pending_direction:
            self._pending_direction = direction
            self._pending_streak = 1
        else:
            self._pending_streak += 1
        if self._pending_streak < self.config.hysteresis_windows:
            return None
        self._pending_direction = None
        self._pending_streak = 0
        return self._issue(now, best_n, best_r, direction)

    # -- solver ----------------------------------------------------------------

    def _predict(self, host_count: int, event_rate: float) -> float:
        """Worst predicted relative half-width across tracked columns at
        the candidate pair (Eqs. 2-3 inverted over the dispersions)."""
        worst = 0.0
        big_n = self.total_hosts
        n = host_count
        for stat in self._columns.values():
            variance = big_n * (big_n - n) * stat.machine_dispersion / n
            if event_rate < 1.0:
                variance += stat.value_dispersion * (1.0 / event_rate - 1.0)
            if variance <= 0.0:
                continue
            if n < 2:
                return math.inf
            rel = t_quantile(self.target.confidence, n - 1) * math.sqrt(variance) / stat.abs_tau
            if rel > worst:
                worst = rel
        return worst

    def _solve(self, cap: float) -> Optional[tuple[int, float]]:
        """Cheapest (n', r') meeting the aim under the cap; None if the
        target is unreachable within the rates this server may apply."""
        aim = self.target.relative_error * (1.0 - self.config.deadband)
        n = self.host_count
        feasible = [r for r in self._rate_candidates(cap) if self._predict(n, r) <= aim]
        return (n, min(feasible)) if feasible else None

    def _rate_candidates(self, cap: float) -> list[float]:
        cfg = self.config
        out: list[float] = []
        r = 1.0
        while r >= cfg.min_event_rate:
            if r <= cap + 1e-12:
                out.append(r)
            r *= cfg.ladder_step
        if not out and cap >= cfg.min_event_rate:
            out.append(cap)
        return out

    def _cost(self, host_count: int, event_rate: float) -> float:
        """Normalized fleet cost: fraction of hosts × fraction of events."""
        return (host_count / self.total_hosts) * event_rate

    # -- clamp / freeze --------------------------------------------------------

    def _event_rate_cap(self) -> float:
        """Max event rate the impact budget permits, projecting the
        per-host wall cost as proportional to the kept fraction.

        Proportional scaling flatters rate cuts (dispatch cost does not
        shrink with the rate), but the loop is closed: the post-retune
        ``ewma_ns × routed/s`` feeds straight back in, and the cap
        ratchets again if the first cut was not enough — a geometric
        descent that bottoms out at ``min_event_rate``, always below
        the governor's own trigger line.
        """
        if self.budget is None or not self._host_cost:
            return 1.0
        worst_wall = max(wall for _r, _t, wall in self._host_cost.values())
        if worst_wall <= 0.0:
            return 1.0
        line = self.budget.max_wall_seconds * self.config.budget_safety
        if worst_wall <= line:
            # Headroom: allow raising the rate proportionally.
            return min(1.0, self.event_rate * line / worst_wall)
        return max(
            self.config.min_event_rate, self.event_rate * line / worst_wall
        )

    def _freeze_reason(self, now: float) -> Optional[str]:
        stale_after = self.config.stale_after_windows * self.window_seconds
        if (
            self._last_window_at is not None
            and now - self._last_window_at > stale_after
        ):
            return "telemetry-stale"
        if any(v is None for v in self._host_versions.values()):
            return "host-missing-rate-version"
        if (
            self.version > 0
            and self._version_issued_at is not None
            and any(
                v is not None and v < self.version
                for v in self._host_versions.values()
            )
            and now - self._version_issued_at
            > self.config.convergence_grace_windows * self.window_seconds
        ):
            return "retune-not-converging"
        return None

    def _refresh_limited(
        self, cap: float, best: Optional[tuple[int, float]] = None
    ) -> None:
        """Decide tracking vs rate_limited and build the structured
        degradation report when the target cannot be met."""
        target = self.target.relative_error
        achievable_pair = (
            self.host_count,
            max(self._rate_candidates(cap), default=self.config.min_event_rate),
        )
        achievable = (
            self._predict(*achievable_pair) if self._columns else 0.0
        )
        if best is not None or achievable <= target:
            self._limited = None
            self._state = STATE_TRACKING
            return
        reason = (
            "impact-budget"
            if cap < 1.0 - 1e-12
            else "target-unreachable"
        )
        self._limited = {
            "reason": reason,
            "achievable_relative_error": achievable,
            "cap_event_rate": cap,
            "target_relative_error": target,
        }
        self._state = STATE_RATE_LIMITED

    def _issue(
        self, now: float, host_count: int, event_rate: float, reason: str
    ) -> RateUpdate:
        self.version += 1
        self.host_count = host_count
        self.event_rate = event_rate
        self._version_issued_at = now
        self._last_update_reason = reason
        self._pending_direction = None
        self._pending_streak = 0
        return RateUpdate(
            query_id=self.query_id,
            version=self.version,
            host_rate=host_count / self.total_hosts,
            event_rate=event_rate,
            host_count=host_count,
            reason=reason,
        )

    # -- reporting -------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def status(self) -> dict[str, Any]:
        """The structured view surfaced via STATS, ``\\rates`` and the
        result set's ``sampling`` attachment."""
        return {
            "state": self._state,
            "version": self.version,
            "host_rate": self.host_count / self.total_hosts,
            "event_rate": self.event_rate,
            "host_count": self.host_count,
            "total_hosts": self.total_hosts,
            "target_relative_error": self.target.relative_error,
            "confidence": self.target.confidence,
            "achieved_relative_error": self._achieved,
            "predicted_relative_error": self._predicted,
            "windows_observed": self._windows_observed,
            "last_update_reason": self._last_update_reason,
            "rate_limited": self._limited,
            "frozen_reason": self._frozen_reason,
        }
