"""Fleet lifecycle: canary rollout widening to completion against a real
daemon (the one end-to-end rollout over sockets), and — as decisions of
the control plane, on the simulator with a manual clock — the auto-abort
acceptance story (a quarantined canary stops the rollout with zero
installs on the untouched fleet), journal-recovered queries installing
on late-joining hosts, and silent hosts aging out of coverage as
``stale`` then rejoining with an epoch bump."""

from repro.core.agent.transport import EventBatch
from repro.live.client import ControlClient, LiveAgent
from repro.live.protocol import MsgType

from .conftest import DaemonHarness, wait_for
from .sim import ControlSim

QUERY = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 10s group by pv.url duration 600s;"
)

QUERY_1S = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 1s group by pv.url duration 600s;"
)

PV_FIELDS = [("url", "string"), ("latency_ms", "double")]

def _agent(harness, name, **kwargs) -> LiveAgent:
    kwargs.setdefault("services", ["Frontends"])
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("reconnect_backoff_base", 0.05)
    agent = LiveAgent(harness.address, name, **kwargs)
    agent.define_event("pv", PV_FIELDS)
    agent.start()
    return agent


class TestCanaryWidening:
    def test_rollout_widens_to_completion_over_healthy_canaries(self):
        harness = DaemonHarness().start()
        agents, ctl = [], ControlClient(harness.address)
        try:
            agents = [_agent(harness, f"web-{i}") for i in range(5)]
            handle = ctl.submit(
                QUERY,
                rollout={"canary_hosts": 1, "widen_factor": 2.0,
                         "bake_intervals": 2},
            )
            qid = handle["query_id"]
            ro = handle["rollout"]
            assert ro["state"] == "canary" and ro["stage"] == 0
            assert len(ro["installed"]) == 1
            assert sorted(ro["order"]) == [f"web-{i}" for i in range(5)]
            assert handle["targeted_hosts"] == ro["installed"]

            assert wait_for(
                lambda: ctl.stats()["rollouts"].get(qid, {}).get("state")
                == "complete",
                timeout=10.0,
            )
            final = ctl.stats()["rollouts"][qid]
            # Geometric widening over 5 hosts: 1 -> 2 -> 4 -> 5.
            assert final["stage"] == 3
            assert final["abort"] is None
            # Install order is exactly the rendezvous rank order.
            assert final["installed"] == final["order"] == ro["order"]
            for agent in agents:
                assert wait_for(lambda a=agent: qid in a.installed_query_ids)
            # Conservation: one effective install per host, no replays.
            assert [a.installs_applied for a in agents] == [1] * 5
        finally:
            for agent in agents:
                agent.close()
            ctl.close()
            harness.stop()


class TestCanaryAbort:
    def test_quarantined_canary_aborts_with_zero_installs_elsewhere(self):
        """The acceptance story: a hot query canaries onto 2 of 20
        registered agents; one canary's governor quarantines it; the
        rollout auto-aborts with the canaries uninstalled and not one
        INSTALL ever reaching the other 18 hosts."""
        sim = ControlSim(lease_seconds=60.0)
        hosts = {f"raw-{i:02d}": sim.add_host(f"raw-{i:02d}") for i in range(20)}
        handle = sim.submit(
            QUERY,
            rollout={"canary_hosts": 2, "widen_factor": 2.0,
                     "bake_intervals": 10_000},  # bake forever: no widen
        )
        qid = handle["query_id"]
        canaries = handle["rollout"]["installed"]
        assert len(canaries) == 2
        assert len(handle["rollout"]["order"]) == 20
        bystanders = [n for n in hosts if n not in canaries]

        # The canaries (and only they) got the INSTALL push.
        for name in canaries:
            assert [m["query_id"] for m in hosts[name].received(MsgType.INSTALL)] == [qid]

        # What a governor quarantine looks like at the central: the
        # host's final flush carries the structured reason (the ladder
        # itself is pinned by tests/core/test_governor.py).
        sim.run(1.0)
        assert sim.stats()["rollouts"][qid]["state"] == "canary"
        sim.ingest(
            EventBatch(
                host=canaries[0], query_id=qid, events=[],
                quarantined="impact-budget-exceeded: injected by test",
            )
        )
        sim.tick()

        # STATS carries the structured abort and the frozen placement.
        stats = sim.stats()
        ro = stats["rollouts"][qid]
        assert ro["state"] == "aborted"
        assert ro["abort"]["reason"] == "canary-quarantined"
        assert ro["abort"]["host"] == canaries[0]
        assert ro["abort"]["stage"] == 0
        assert ro["installed"] == canaries
        assert sorted(stats["queries"][qid]["targeted"]) == sorted(canaries)

        # ... and POLL surfaces the same abort to the troubleshooter.
        results = sim.poll(qid)
        assert results.rollout["state"] == "aborted"
        assert results.rollout["abort"]["reason"] == "canary-quarantined"

        # The canaries were uninstalled; the other 18 heard *nothing* —
        # not then, and not however long the aborted query lingers.
        sim.run(5.0)
        for name in canaries:
            assert hosts[name].received(MsgType.UNINSTALL) == [{"query_id": qid}]
            assert hosts[name].agent.active_query_ids == ()
        for name in bystanders:
            assert hosts[name].received(MsgType.INSTALL) == []

    def test_late_joiner_is_never_admitted_to_an_aborted_rollout(self):
        sim = ControlSim(lease_seconds=60.0)
        for i in range(3):
            sim.add_host(f"web-{i}")
        handle = sim.submit(
            QUERY, rollout={"canary_hosts": 1, "bake_intervals": 10_000}
        )
        qid = handle["query_id"]
        (canary,) = handle["rollout"]["installed"]
        sim.ingest(EventBatch(host=canary, query_id=qid, events=[], quarantined="test"))
        sim.tick()
        frozen = sim.stats()["rollouts"][qid]
        assert frozen["state"] == "aborted"

        late = sim.add_host("web-late")
        assert late.received(MsgType.INSTALL) == []
        assert late.received(MsgType.SYNC) == [{"query_ids": []}]
        assert sim.stats()["rollouts"][qid] == frozen


class TestRecoveryLateJoin:
    def test_recovered_query_stays_pending_then_installs_on_late_join(self):
        """A journalled query whose hosts never came back resolves to
        zero live hosts on recovery; it must stay pending (running, all
        delivery ``never-seen``) and install the moment a matching agent
        registers — even one the crashed plane never met."""
        sim = ControlSim()
        sim.add_host("web-0")
        qid = sim.submit(QUERY)["query_id"]
        sim.recover()  # web-0 died with the old scrubd and never redials

        stats = sim.stats()
        assert qid in stats["running"]
        assert stats["hosts"] == []
        assert stats["queries"][qid]["delivery"] == {"web-0": "never-seen"}

        late = sim.add_host("web-9")
        assert qid in late.agent.active_query_ids
        assert late.installs_applied == 1
        stats = sim.stats()
        assert "web-9" in stats["queries"][qid]["targeted"]
        assert stats["queries"][qid]["delivery"]["web-9"] == "connected"

    def test_late_join_placement_is_rendezvous_stable(self):
        """A plain sampled query admits a late joiner exactly when the
        rendezvous pick over the live membership would have chosen it —
        and nobody else's placement moves."""
        sim = ControlSim(lease_seconds=60.0)
        for i in range(8):
            sim.add_host(f"web-{i}")
        handle = sim.submit(
            "select COUNT(*) from pv @[Service in Frontends] sample hosts 50% "
            "window 10s duration 600s;"
        )
        qid = handle["query_id"]
        before = handle["targeted_hosts"]
        assert len(before) == 4
        joined = []
        for i in range(8, 16):
            late = sim.add_host(f"web-{i}")
            if qid in late.agent.active_query_ids:
                joined.append(late.name)
        targeted = sim.stats()["queries"][qid]["targeted"]
        assert targeted == before + joined  # nobody moved, nobody left
        assert 0 < len(joined) < 8         # some, not all: it is a sample


class TestStaleAgeOut:
    def test_partitioned_host_ages_out_as_stale_then_rejoins_with_epoch_bump(
        self,
    ):
        """The stale age-out acceptance story: a host silent past the
        (lease-derived) age-out threshold leaves WindowCoverage as
        ``missing: stale`` — a named state, not silently widened bounds —
        and a later re-registration with a bumped epoch rejoins cleanly
        while the other hosts' membership is untouched."""
        sim = ControlSim(lease_seconds=0.5, grace_seconds=0.5)
        assert sim.stats()["stale_after"] == 1.0  # one clock: 2x the 0.5s lease
        web0 = sim.add_host("web-0")
        raw1 = sim.add_host("raw-1")
        qid = sim.submit(QUERY_1S)["query_id"]
        web0_epoch = sim.stats()["fleet"][1]["epoch"]

        def fleet_state(name):
            return {r["host"]: r["state"] for r in sim.stats()["fleet"]}[name]

        def step(seconds):
            for _ in range(round(seconds / 0.25)):
                sim.advance(0.25)
                web0.heartbeat()
                web0.agent.flush()
                sim.tick()

        # raw-1 never heartbeats: lease expiry, then the age-out.
        step(0.75)
        assert fleet_state("raw-1") == "disconnected"
        assert sim.stats()["queries"][qid]["delivery"]["raw-1"] == "lease-expired"
        step(0.5)
        assert fleet_state("raw-1") == "stale"
        assert sim.stats()["queries"][qid]["delivery"]["raw-1"] == "stale"
        assert fleet_state("web-0") == "live"

        # Events logged *after* the age-out land in a window that can
        # only close after it — so its coverage must name the state.
        t0 = sim.now
        for _ in range(4):
            web0.log()
        step(2.0)
        (window,) = [
            w for w in sim.poll(qid).windows
            if w.window_start <= t0 < w.window_end
        ]
        assert window.coverage.missing == {"raw-1": "stale"}
        assert window.coverage.reporting == ("web-0",)
        assert window.degraded

        # Rejoin with a bumped epoch: HELLO_OK, INSTALL replay, live.
        raw1.frames.clear()
        assert raw1.connect()
        assert [kind for kind, _m in raw1.frames] == [
            MsgType.HELLO_OK, MsgType.INSTALL, MsgType.SYNC
        ]
        rows = {r["host"]: r for r in sim.stats()["fleet"]}
        assert rows["raw-1"]["state"] == "live"
        assert rows["raw-1"]["epoch"] > web0_epoch
        assert sim.stats()["queries"][qid]["delivery"]["raw-1"] == "connected"
        # The bystander's session was untouched by the churn.
        assert rows["web-0"]["state"] == "live"
        assert rows["web-0"]["epoch"] == web0_epoch
