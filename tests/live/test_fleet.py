"""Unit tests for the fleet lifecycle state machines: RolloutPolicy
validation, the QueryRollout canary→widen→complete/abort machine,
FleetManager membership transitions (live → disconnected → stale →
rejoin), rendezvous ranking properties, and the full-jitter backoff.

Everything here is synchronous and socket-free; the daemon-driven
integration behaviour lives in test_rollout_live.py."""

import pytest

from repro.core.query.targets import (
    rendezvous_order,
    rendezvous_sample,
)
from repro.core.control.fleet import (
    MEMBER_DISCONNECTED,
    MEMBER_LIVE,
    MEMBER_STALE,
    ROLLOUT_ABORTED,
    ROLLOUT_CANARY,
    ROLLOUT_COMPLETE,
    ROLLOUT_WIDENING,
    FleetManager,
    QueryRollout,
    RolloutAbort,
    RolloutPolicy,
)
from repro.live.transport import JitteredBackoff


class _Desc:
    """Stand-in HostDescription: just the fields FleetManager reads."""

    def __init__(self, name, services=("Frontends",), datacenter="dc1"):
        self.name = name
        self.services = frozenset(services)
        self.datacenter = datacenter


class _Conn:
    """Stand-in _AgentConn: last_seen + query_costs, duck-typed."""

    def __init__(self, last_seen=0.0, query_costs=None):
        self.last_seen = last_seen
        self.query_costs = query_costs if query_costs is not None else {}


class TestRolloutPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RolloutPolicy(canary_hosts=0)
        with pytest.raises(ValueError):
            RolloutPolicy(canary_hosts=1, widen_factor=1.0)
        with pytest.raises(ValueError):
            RolloutPolicy(canary_hosts=1, bake_intervals=0)
        with pytest.raises(ValueError):
            RolloutPolicy(canary_hosts=1, max_ewma_ns=0.0)

    def test_quota_grows_geometrically(self):
        policy = RolloutPolicy(canary_hosts=2, widen_factor=2.0)
        assert [policy.quota(s) for s in range(4)] == [2, 4, 8, 16]
        # Fractional factors still grow at least one host per stage via ceil.
        slow = RolloutPolicy(canary_hosts=1, widen_factor=1.5)
        assert [slow.quota(s) for s in range(4)] == [1, 2, 3, 4]

    def test_payload_round_trip(self):
        policy = RolloutPolicy(3, widen_factor=3.0, bake_intervals=5, max_ewma_ns=100.0)
        again = RolloutPolicy.from_payload(policy.as_dict())
        assert again.as_dict() == policy.as_dict()
        # max_ewma_ns is omitted from the dict when unset, and defaults apply.
        assert "max_ewma_ns" not in RolloutPolicy(1).as_dict()
        defaulted = RolloutPolicy.from_payload({"canary_hosts": 2})
        assert defaulted.widen_factor == 2.0
        assert defaulted.bake_intervals == 2
        assert defaulted.max_ewma_ns is None

    def test_from_payload_propagates_none(self):
        assert RolloutPolicy.from_payload(None) is None


class TestQueryRollout:
    def _rollout(self, n_hosts=6, canary=1, factor=2.0, bake=2, ceiling=None):
        policy = RolloutPolicy(canary, widen_factor=factor, bake_intervals=bake,
                               max_ewma_ns=ceiling)
        order = [f"h{i}" for i in range(n_hosts)]
        ro = QueryRollout("q00001", policy, order=order)
        ro.note_installed(order[: ro.quota()])
        return ro

    def test_canary_then_geometric_widening_to_complete(self):
        ro = self._rollout(n_hosts=6, canary=1, factor=2.0, bake=2)
        assert ro.state == ROLLOUT_CANARY
        assert ro.installed == ["h0"]
        assert ro.pending() == ["h1", "h2", "h3", "h4", "h5"]

        # The bake gate: widen only after bake_intervals healthy ticks.
        assert not ro.tick_healthy()
        assert ro.tick_healthy()
        tranche = ro.widen_tranche()
        assert tranche == ["h1"]          # quota(1) = 2, one already installed
        ro.note_installed(tranche)
        assert ro.state == ROLLOUT_WIDENING
        assert ro.healthy_ticks == 0      # the bake restarts per stage

        assert ro.tick_healthy() is False and ro.tick_healthy()
        ro.note_installed(ro.widen_tranche())  # quota(2) = 4
        assert ro.installed == ["h0", "h1", "h2", "h3"]

        assert ro.tick_healthy() is False and ro.tick_healthy()
        ro.note_installed(ro.widen_tranche())  # quota(3) = 8 > 6: the rest
        assert ro.installed == [f"h{i}" for i in range(6)]
        assert ro.state == ROLLOUT_COMPLETE
        assert not ro.active
        assert ro.tick_healthy() is False  # completed machines do not bake

    def test_quota_clamps_to_order_length(self):
        ro = self._rollout(n_hosts=3, canary=8)
        assert ro.quota() == 3
        assert ro.installed == ["h0", "h1", "h2"]
        assert ro.state == ROLLOUT_COMPLETE  # nothing left to widen onto

    def test_admit_queues_newcomer_until_widening_reaches_it(self):
        ro = self._rollout(n_hosts=2, canary=1)
        assert ro.admit("late-0")
        assert not ro.admit("late-0")      # idempotent
        assert not ro.admit("h0")          # already ranked
        assert ro.order == ["h0", "h1", "late-0"]
        assert "late-0" not in ro.installed
        ro.note_installed(ro.widen_tranche())   # stage 1: quota 2
        assert ro.installed == ["h0", "h1"]
        ro.note_installed(ro.widen_tranche())   # stage 2: quota 4 covers it
        assert "late-0" in ro.installed
        assert ro.state == ROLLOUT_COMPLETE

    def test_admit_into_completed_rollout_installs_immediately(self):
        ro = self._rollout(n_hosts=1, canary=1)
        assert ro.state == ROLLOUT_COMPLETE
        assert ro.admit("late-0")
        assert "late-0" in ro.installed

    def test_retire_drops_pending_but_never_installed(self):
        ro = self._rollout(n_hosts=3, canary=1)
        assert ro.retire("h2")             # pending: gone from the order
        assert ro.order == ["h0", "h1"]
        assert not ro.retire("h0")         # installed: stays (coverage's job)
        assert not ro.retire("ghost")
        ro.note_installed(ro.widen_tranche())
        assert ro.state == ROLLOUT_COMPLETE
        assert ro.installed == ["h0", "h1"]

    def test_check_health_quarantine_aborts(self):
        ro = self._rollout(n_hosts=4, canary=2)
        abort = ro.check_health({"h1": "impact-budget-exceeded: test"}, {})
        assert abort is not None
        assert abort.reason == "canary-quarantined"
        assert abort.host == "h1"
        assert abort.stage == 0
        # A quarantine on a host the rollout has not installed is not ours.
        assert ro.check_health({"h3": "impact-budget-exceeded"}, {}) is None

    def test_check_health_cost_ceiling_aborts(self):
        ro = self._rollout(n_hosts=4, canary=2, ceiling=1000.0)
        assert ro.check_health({}, {"h0": 999.0}) is None
        abort = ro.check_health({}, {"h0": 999.0, "h1": 1500.0})
        assert abort is not None
        assert abort.reason == "cost-regression"
        assert abort.host == "h1"
        # No ceiling configured: cost is the governor's problem, not ours.
        assert self._rollout().check_health({}, {"h0": 1e12}) is None

    def test_record_abort_freezes_the_machine(self):
        ro = self._rollout(n_hosts=4, canary=1)
        abort = RolloutAbort("canary-quarantined", "h0", "detail", 0)
        ro.record_abort(abort)
        assert ro.state == ROLLOUT_ABORTED
        assert not ro.active
        assert ro.widen_tranche() == []
        assert not ro.tick_healthy()
        assert ro.as_dict()["abort"]["reason"] == "canary-quarantined"
        assert RolloutAbort.from_dict(ro.as_dict()["abort"]).host == "h0"
        assert RolloutAbort.from_dict(None) is None

    def test_as_dict_round_trips_through_resume(self):
        ro = self._rollout(n_hosts=6, canary=1)
        ro.tick_healthy(), ro.tick_healthy()
        ro.note_installed(ro.widen_tranche())
        snap = ro.as_dict()
        again = QueryRollout(
            "q00001",
            RolloutPolicy.from_payload(snap["policy"]),
            order=snap["order"],
            installed=snap["installed"],
            stage=snap["stage"],
            state=snap["state"],
            abort=RolloutAbort.from_dict(snap["abort"]),
        )
        assert again.as_dict() == snap
        assert again.healthy_ticks == 0   # the bake timer restarts on resume


class TestFleetManager:
    def test_stale_after_defaults_to_twice_the_lease(self):
        fleet = FleetManager(lease_seconds=10.0)
        assert fleet.stale_after == 20.0
        assert FleetManager(5.0, stale_after=30.0).stale_after == 30.0
        with pytest.raises(ValueError):
            FleetManager(lease_seconds=10.0, stale_after=5.0)

    def test_lifecycle_live_disconnected_stale_rejoin(self):
        fleet = FleetManager(lease_seconds=1.0)  # stale after 2.0
        conn = _Conn(last_seen=0.0)
        member = fleet.attach(_Desc("web-0"), conn, epoch=1, now=0.0)
        assert member.state == MEMBER_LIVE
        assert len(fleet) == 1 and "web-0" in fleet
        assert [m.name for m in fleet.live()] == ["web-0"]

        # Silent past the lease: flagged for eviction, still attached.
        assert [m.name for m in fleet.lease_lapsed(1.5)] == ["web-0"]
        fleet.detach("web-0", 1.5)
        assert member.state == MEMBER_DISCONNECTED
        assert fleet.live() == [] and fleet.conn("web-0") is None
        assert "web-0" in fleet           # membership survives the channel

        # Not yet silent past stale_after (last_seen 0.0 + 2.0).
        assert fleet.age_out(1.9) == []
        aged = fleet.age_out(2.1)
        assert [m.name for m in aged] == ["web-0"]
        assert member.state == MEMBER_STALE
        assert fleet.age_out(3.0) == []   # transition reported exactly once

        # A rejoin at any point flips back to live with the new epoch.
        rejoined = fleet.attach(_Desc("web-0"), _Conn(last_seen=5.0), epoch=2, now=5.0)
        assert rejoined is member
        assert member.state == MEMBER_LIVE and member.epoch == 2

    def test_attached_member_never_ages_out(self):
        fleet = FleetManager(lease_seconds=1.0)
        fleet.attach(_Desc("web-0"), _Conn(last_seen=0.0), epoch=1, now=0.0)
        # Still attached (lease expiry is the daemon's move): no age-out.
        assert fleet.age_out(100.0) == []

    def test_last_seen_follows_the_conn_while_attached(self):
        fleet = FleetManager(lease_seconds=1.0)
        conn = _Conn(last_seen=0.0)
        member = fleet.attach(_Desc("web-0"), conn, epoch=1, now=0.0)
        conn.last_seen = 7.0              # heartbeats move the conn's clock
        assert member.last_seen == 7.0
        assert fleet.lease_lapsed(7.5) == []
        fleet.detach("web-0", 8.0)
        assert member.last_seen == 7.0    # frozen at the last frame seen

    def test_ewma_by_host_reads_live_heartbeat_costs(self):
        fleet = FleetManager(lease_seconds=1.0)
        fleet.attach(
            _Desc("web-0"),
            _Conn(query_costs={"q1": {"ewma_ns": 120.0, "routed": 9}}),
            epoch=1, now=0.0,
        )
        fleet.attach(
            _Desc("web-1"), _Conn(query_costs={"q2": {"ewma_ns": 5.0}}),
            epoch=1, now=0.0,
        )
        fleet.detach("web-1", 0.0)        # detached hosts report nothing
        assert fleet.ewma_by_host("q1") == {"web-0": 120.0}
        assert fleet.ewma_by_host("q2") == {}

    def test_stats_names_every_state(self):
        fleet = FleetManager(lease_seconds=1.0)
        fleet.attach(_Desc("a"), _Conn(last_seen=0.0), epoch=3, now=0.0)
        fleet.attach(_Desc("b"), _Conn(last_seen=0.0), epoch=1, now=0.0)
        fleet.detach("b", 0.5)
        fleet.attach(_Desc("c"), _Conn(last_seen=0.0), epoch=1, now=0.0)
        fleet.detach("c", 0.1)
        fleet.age_out(2.5)                # c and b silent past 2.0
        rows = {row["host"]: row for row in fleet.stats(2.5)}
        assert rows["a"]["state"] == MEMBER_LIVE and rows["a"]["epoch"] == 3
        assert rows["b"]["state"] == MEMBER_STALE
        assert rows["c"]["state"] == MEMBER_STALE
        assert rows["b"]["last_seen_age"] == pytest.approx(2.5)
        assert rows["a"]["services"] == ["Frontends"]


class TestRendezvous:
    NAMES = [f"web-{i}" for i in range(40)]

    def test_order_is_deterministic_and_seed_sensitive(self):
        assert rendezvous_order(self.NAMES, 7) == rendezvous_order(self.NAMES, 7)
        assert rendezvous_order(self.NAMES, 7) != rendezvous_order(self.NAMES, 8)
        assert sorted(rendezvous_order(self.NAMES, 7)) == sorted(self.NAMES)

    def test_churn_moves_only_the_churned_host(self):
        # Remove one host: everyone else keeps their relative order.
        full = rendezvous_order(self.NAMES, 42)
        for gone in (full[0], full[17], full[-1]):
            survivors = [n for n in self.NAMES if n != gone]
            assert rendezvous_order(survivors, 42) == [
                n for n in full if n != gone
            ]

    def test_sample_changes_by_at_most_one_on_join(self):
        # 40 hosts -> quota 10; 41 -> quota 11.  Every original pick keeps
        # its slot (ranks are per-name-stable, so a newcomer shifts each
        # original's absolute rank by at most one); the sample grows by
        # exactly one host — never a reshuffle.
        before = set(rendezvous_sample(self.NAMES, 0.25, seed=9))
        after = set(rendezvous_sample(self.NAMES + ["web-new"], 0.25, seed=9))
        assert before <= after
        assert len(after - before) == 1

    def test_sample_rate_one_returns_full_rank_order(self):
        picked = rendezvous_sample(self.NAMES, 1.0, seed=9)
        assert picked == rendezvous_order(self.NAMES, 9)

    def test_sample_at_least_one(self):
        assert len(rendezvous_sample(self.NAMES, 0.001, seed=9)) == 1


class TestJitteredBackoff:
    def test_same_name_same_sequence_across_instances(self):
        a = JitteredBackoff("web-0", base=0.05, cap=2.0, salt="control")
        b = JitteredBackoff("web-0", base=0.05, cap=2.0, salt="control")
        assert [a.next_delay() for _ in range(6)] == [
            b.next_delay() for _ in range(6)
        ]

    def test_different_names_and_salts_decorrelate(self):
        a = JitteredBackoff("web-0", 0.05, 2.0, salt="control")
        b = JitteredBackoff("web-1", 0.05, 2.0, salt="control")
        c = JitteredBackoff("web-0", 0.05, 2.0, salt="data")
        seq = lambda j: [j.next_delay() for _ in range(6)]  # noqa: E731
        sa, sb, sc = seq(a), seq(b), seq(c)
        assert sa != sb and sa != sc

    def test_full_jitter_stays_under_the_doubling_ceiling(self):
        backoff = JitteredBackoff("web-0", base=0.05, cap=0.4, salt="t")
        ceilings = [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]
        for ceiling in ceilings:
            assert 0.0 <= backoff.next_delay() <= ceiling

    def test_reset_restarts_ceiling_but_not_the_stream(self):
        backoff = JitteredBackoff("web-0", base=0.05, cap=2.0, salt="t")
        first = backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff._ceiling == 0.05
        # The RNG stream keeps advancing: no replay of the first delay.
        assert backoff.next_delay() != first
