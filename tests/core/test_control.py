"""Unit tests for the closed-loop sampling controller.

The controller is engine-free, so these tests drive it with synthetic
telemetry: hand-built ``WindowResult``/``ApproxEstimate`` windows whose
dispersions are chosen to make the Eqs. 1-3 inversion land on known
answers, and hand-built ``query_costs`` counter streams for the budget
clamp and freeze paths.
"""

import math

import pytest

from repro.core.agent.governor import ImpactBudget
from repro.core.approx.sampling_theory import ApproxEstimate
from repro.core.central.results import WindowResult
from repro.core.control import (
    STATE_FROZEN,
    STATE_RATE_LIMITED,
    STATE_TRACKING,
    STATE_WARMUP,
    SamplingController,
)
from repro.core.query.ast import TargetCISpec


QUERY_ID = "q00001"
TOTAL = 64
TARGETED = 16


def make_window(
    start: float,
    estimate: float = 1000.0,
    machine_dispersion: float = 0.01,
    value_dispersion: float = 1000.0,
    sample_events: int = 500,
) -> WindowResult:
    est = ApproxEstimate(
        estimate=estimate,
        error_bound=1.0,
        confidence=0.95,
        variance=1.0,
        sampled_machines=TARGETED,
        total_machines=TOTAL,
        machine_dispersion=machine_dispersion,
        value_dispersion=value_dispersion,
        sample_events=sample_events,
    )
    return WindowResult(
        query_id=QUERY_ID,
        window_start=start,
        window_end=start + 1.0,
        columns=("total",),
        rows=[],
        estimates={"total": est},
    )


def make_controller(**kwargs) -> SamplingController:
    defaults = dict(
        total_hosts=TOTAL,
        targeted_hosts=TARGETED,
        window_seconds=1.0,
        event_rate=1.0,
    )
    defaults.update(kwargs)
    target = defaults.pop("target", TargetCISpec(relative_error=0.05))
    return SamplingController(QUERY_ID, target, **defaults)


class TestWarmupAndTracking:
    def test_warmup_until_first_window(self):
        c = make_controller()
        assert c.tick(0.0) is None
        assert c.state == STATE_WARMUP

    def test_relax_converges_after_hysteresis(self):
        # At full rate the predicted error is far below the 5% target,
        # and the solver's cheapest feasible rate is one ladder step
        # down (sqrt(1/2)); the verdict must repeat for two windows.
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        assert c.tick(1.0) is None  # streak 1 of 2
        assert c.state == STATE_TRACKING
        c.observe_window(make_window(1.0), 2.0)
        update = c.tick(2.0)
        assert update is not None
        assert update.reason == "relax"
        assert update.version == 1
        assert update.event_rate == pytest.approx(0.5 ** 0.5)
        assert update.host_count == TARGETED  # the host set is not the solver's to move
        assert c.version == 1

    def test_hysteresis_is_window_gated_not_tick_gated(self):
        # Many ticks against one window must count as one evaluation.
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        for tick in range(5):
            assert c.tick(1.0 + 0.01 * tick) is None

    def test_deadband_no_oscillation_after_convergence(self):
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        assert c.tick(1.0) is None
        c.observe_window(make_window(1.0), 2.0)
        assert c.tick(2.0) is not None
        # Telemetry keeps arriving unchanged: the converged pair sits in
        # the deadband and nothing moves again.
        for i in range(2, 12):
            c.observe_window(make_window(float(i)), float(i + 1))
            assert c.tick(float(i + 1)) is None
        assert c.version == 1
        assert c.state == STATE_TRACKING

    def test_tighten_when_submitted_rates_miss_target(self):
        c = make_controller(event_rate=1.0 / 64.0)
        c.observe_window(make_window(0.0), 1.0)
        assert c.tick(1.0) is None
        c.observe_window(make_window(1.0), 2.0)
        update = c.tick(2.0)
        assert update is not None
        assert update.reason == "tighten"
        assert update.event_rate > 1.0 / 64.0

    def test_zero_estimates_keep_warming_up(self):
        c = make_controller()
        c.observe_window(make_window(0.0, estimate=0.0), 1.0)
        assert c.tick(1.0) is None
        assert c.state == STATE_WARMUP


class TestBudgetClamp:
    def feed_costs(self, c, wall_ns_per_event, routed_step, at):
        c.observe_costs(
            {
                "host-0": {
                    "ewma_ns": wall_ns_per_event,
                    "routed": routed_step,
                    "rates_version": c.version,
                }
            },
            at,
        )
        c.observe_costs(
            {
                "host-0": {
                    "ewma_ns": wall_ns_per_event,
                    "routed": routed_step * 2,
                    "rates_version": c.version,
                }
            },
            at + 1.0,
        )

    def test_clamp_is_immediate_no_hysteresis(self):
        budget = ImpactBudget(max_wall_seconds=0.050)
        c = make_controller(budget=budget)
        c.observe_window(make_window(0.0), 1.0)
        # 1ms per event x 1000 events/s = 1s of wall per 1s interval:
        # 20x over the 80%-of-50ms clamp line.
        self.feed_costs(c, 1_000_000.0, 1000, 1.0)
        update = c.tick(2.0)  # first evaluated window — no hysteresis
        assert update is not None
        assert update.reason == "clamp"
        assert update.event_rate < 0.1
        status = c.status()
        assert status["rate_limited"] is not None
        assert status["rate_limited"]["reason"] == "impact-budget"
        assert (
            status["rate_limited"]["achievable_relative_error"]
            > c.target.relative_error
        )

    def test_no_clamp_with_headroom(self):
        budget = ImpactBudget(max_wall_seconds=0.050)
        c = make_controller(budget=budget)
        c.observe_window(make_window(0.0), 1.0)
        # 1us per event x 100 events/s = 0.1ms of wall: far under line.
        self.feed_costs(c, 1_000.0, 100, 1.0)
        update = c.tick(2.0)
        assert update is None or update.reason != "clamp"

    def test_budget_tightened_mid_run_clamps(self):
        c = make_controller(budget=None)
        c.observe_window(make_window(0.0), 1.0)
        self.feed_costs(c, 1_000_000.0, 1000, 1.0)
        assert c.tick(2.0) is None  # no budget, no clamp
        c.budget = ImpactBudget(max_wall_seconds=0.050)
        c.observe_window(make_window(1.0), 2.5)
        self.feed_costs(c, 1_000_000.0, 3000, 2.5)
        update = c.tick(4.0)
        assert update is not None and update.reason == "clamp"
        assert c.state == STATE_RATE_LIMITED


class TestRateLimitedReporting:
    def test_unreachable_target_reports_achievable_bound(self):
        # Machine variance alone exceeds the target and the host set is
        # fixed: no applicable pair works, so the controller degrades
        # honestly instead of thrashing rates.
        c = make_controller(target=TargetCISpec(relative_error=0.05))
        window = make_window(0.0, machine_dispersion=5.0, value_dispersion=0.0)
        c.observe_window(window, 1.0)
        assert c.tick(1.0) is None
        status = c.status()
        assert c.state == STATE_RATE_LIMITED
        limited = status["rate_limited"]
        assert limited["reason"] == "target-unreachable"
        assert limited["achievable_relative_error"] > 0.05
        assert limited["target_relative_error"] == pytest.approx(0.05)


class TestFreeze:
    def test_freeze_on_stale_telemetry(self):
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        assert c.tick(10.0) is None  # 9s > 3 window lengths silent
        assert c.state == STATE_FROZEN
        assert c.status()["frozen_reason"] == "telemetry-stale"
        # Telemetry recovers: the freeze lifts.
        c.observe_window(make_window(9.0), 10.5)
        c.tick(10.6)
        assert c.state != STATE_FROZEN

    def test_freeze_on_version_less_host(self):
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        c.observe_costs({"old-agent": {"ewma_ns": 100.0, "routed": 10}}, 1.0)
        assert c.tick(1.5) is None
        assert c.state == STATE_FROZEN
        assert c.status()["frozen_reason"] == "host-missing-rate-version"

    def test_freeze_on_retune_never_converging(self):
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        assert c.tick(1.0) is None
        c.observe_window(make_window(1.0), 2.0)
        update = c.tick(2.0)
        assert update is not None
        # A host keeps heartbeating the old version past the grace
        # (windows stay fresh, so this isn't the staleness freeze).
        for at in (3.0, 4.0, 5.0, 6.0):
            c.observe_window(make_window(at - 1.0), at)
            c.observe_costs(
                {"h1": {"ewma_ns": 10.0, "routed": 5, "rates_version": 0}}, at
            )
        assert c.tick(6.5) is None
        assert c.state == STATE_FROZEN
        assert c.status()["frozen_reason"] == "retune-not-converging"

    def test_converging_host_blocks_retune_within_grace(self):
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        assert c.tick(1.0) is None
        c.observe_window(make_window(1.0), 2.0)
        assert c.tick(2.0) is not None
        # Within the grace window a lagging host is normal convergence:
        # not frozen, but no further retunes either.
        c.observe_window(make_window(2.0), 3.0)
        c.observe_costs(
            {"h1": {"ewma_ns": 10.0, "routed": 5, "rates_version": 0}}, 3.0
        )
        assert c.tick(3.0) is None
        assert c.state != STATE_FROZEN
        assert c.version == 1

    def test_forget_host_unfreezes(self):
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        c.observe_costs({"old-agent": {"ewma_ns": 100.0, "routed": 10}}, 1.0)
        c.tick(1.5)
        assert c.state == STATE_FROZEN
        c.forget_host("old-agent")
        c.observe_window(make_window(1.0), 2.0)
        c.tick(2.0)
        assert c.state != STATE_FROZEN


class TestStarvedTelemetry:
    def converge(self):
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        assert c.tick(1.0) is None
        c.observe_window(make_window(1.0), 2.0)
        assert c.tick(2.0) is not None
        return c

    def test_starved_windows_cannot_shrink_the_variance_model(self):
        # A nearly-empty window routinely misses the value tail and
        # measures collapsed dispersions; believing it would let a
        # clamped query claim its target became achievable for free.
        c = self.converge()
        achieved = c.status()["achieved_relative_error"]
        for i in range(2, 10):
            c.observe_window(
                make_window(
                    float(i),
                    machine_dispersion=0.0,
                    value_dispersion=0.0,
                    sample_events=4,
                ),
                float(i + 1),
            )
            assert c.tick(float(i + 1)) is None  # no relax on noise
        assert c.version == 1
        status = c.status()
        assert status["achieved_relative_error"] == achieved
        # The variance model held: predicted error is still finite and
        # did not collapse toward zero.
        assert status["predicted_relative_error"] > 0.0

    def test_starved_windows_still_raise_the_model(self):
        # Bad news from a starved window is believed: dispersion jumps
        # upward must tighten even when the sample was tiny.
        c = self.converge()
        for at in (3.0, 4.0):
            c.observe_window(
                make_window(at - 1.0, value_dispersion=1e6, sample_events=4),
                at,
            )
            update = c.tick(at)
        assert update is not None
        assert update.reason == "tighten"
        assert update.event_rate > 0.5 ** 0.5


class TestStatus:
    def test_status_shape(self):
        c = make_controller()
        status = c.status()
        assert status["state"] == STATE_WARMUP
        assert status["version"] == 0
        assert status["host_rate"] == pytest.approx(TARGETED / TOTAL)
        assert status["event_rate"] == 1.0
        assert status["target_relative_error"] == pytest.approx(0.05)
        assert status["confidence"] == pytest.approx(0.95)
        assert status["rate_limited"] is None
        assert status["frozen_reason"] is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            make_controller(targeted_hosts=0)
        with pytest.raises(ValueError):
            make_controller(targeted_hosts=TOTAL + 1)

    def test_predicted_error_well_defined_at_full_rates(self):
        # The whole point of the dispersion telemetry: a window observed
        # at r=1 still predicts the error of any cheaper pair.
        c = make_controller()
        c.observe_window(make_window(0.0), 1.0)
        c.tick(1.0)
        predicted = c.status()["predicted_relative_error"]
        assert predicted is not None and math.isfinite(predicted)
