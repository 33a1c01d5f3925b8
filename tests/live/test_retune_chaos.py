"""Crash chaos for the closed-loop sampling retune path.

Two recovery invariants, both resting on journal-before-fan-out plus the
agents' version compare:

* a control plane killed *mid-retune* (the rates record hit the journal,
  the INSTALL fan-out did not) recovers with exactly the journalled rate
  version and replays it to re-attaching agents — the fleet converges to
  the version the journal names, never a half-applied mix;
* an agent that restarts mid-query converges back to the controller's
  current rate version through the ordinary INSTALL replay, with no
  dedicated retune-recovery machinery.

These are decisions of the plane, so they run on the simulator
(``tests/live/sim.py``): the real plane, real agents, an in-memory
journal, and a crash placed at an exact effect boundary instead of a
SIGKILL that hopes to land between two awaits.
"""

import pytest

from repro.core.control import Journal, MsgType, Push

from .sim import TARGET_QUERY, ControlSim, PlaneCrashed

pytestmark = pytest.mark.chaos


def _retune(sim: ControlSim, query_id: str, event_rate: float, reason: str = "relax"):
    """Make the query's controller issue one retune on the next tick, and
    return that tick's effects unperformed — exactly what the plane hands
    its shell when the solver moves the rate."""
    controller = sim.plane.running[query_id].controller
    controller.tick = lambda now: controller._issue(
        now, controller.host_count, event_rate, reason
    )
    try:
        return sim.plane.tick(sim.now)
    finally:
        del controller.tick


def _push_retune(sim: ControlSim, query_id: str, event_rate: float, reason: str = "relax") -> int:
    sim.perform(_retune(sim, query_id, event_rate, reason))
    return sim.plane.running[query_id].controller.version


class TestDaemonKilledMidRetune:
    def test_journalled_rate_version_replays_exactly(self):
        sim = ControlSim()
        host = sim.add_host("web-0")
        query_id = sim.submit(TARGET_QUERY)["query_id"]
        effects = _retune(sim, query_id, 0.25)
        # Journal first, fan-out second — in the list the plane returned.
        assert isinstance(effects[0], Journal) and effects[0].record["version"] == 1
        assert [type(e) for e in effects[1:]] == [Push]
        # The journal append lands; the plane dies before any INSTALL
        # goes out — the strictest mid-retune crash point.
        sim.crash_after(1)
        with pytest.raises(PlaneCrashed):
            sim.perform(effects)
        assert host.agent.rates_version(query_id) == 0  # fan-out never ran

        # Recovery: same journal, fresh plane, fresh agent session.
        sim.recover()
        recovered = sim.plane.running[query_id].controller
        assert recovered.version == 1
        assert recovered.event_rate == pytest.approx(0.25)
        # The INSTALL replay carries the journalled version and the
        # re-attached agent converges to it.
        assert host.connect()
        assert host.agent.rates_version(query_id) == 1

    def test_repeated_crashes_keep_the_last_version(self):
        sim = ControlSim()
        host = sim.add_host("web-0")
        query_id = sim.submit(TARGET_QUERY)["query_id"]
        _push_retune(sim, query_id, 0.5)
        sim.recover()
        assert host.connect()
        _push_retune(sim, query_id, 0.25)
        last = _push_retune(sim, query_id, 0.125, reason="clamp")
        assert last == 3
        assert host.agent.rates_version(query_id) == last

        sim.recover()
        recovered = sim.plane.running[query_id].controller
        assert recovered.version == last
        assert recovered.event_rate == pytest.approx(0.125)


class TestAgentRestartConverges:
    def test_install_replay_brings_restarted_agent_to_current_version(self):
        sim = ControlSim()
        host = sim.add_host("web-0")
        query_id = sim.submit(TARGET_QUERY)["query_id"]
        version = _push_retune(sim, query_id, 0.5)
        assert host.agent.rates_version(query_id) == version

        # Restart: a new session of the same host re-registers and
        # receives the ordinary INSTALL replay — which must carry the
        # current rate version, not the submit-time rates.
        host.restart()
        assert host.agent.active_query_ids == ()
        assert host.connect()
        assert query_id in host.agent.active_query_ids
        assert host.agent.rates_version(query_id) == version

    def test_stale_replay_cannot_roll_back(self):
        # A duplicated/reordered INSTALL replay carrying an older version
        # must be ignored by the agent's version compare.
        sim = ControlSim()
        host = sim.add_host("web-0")
        query_id = sim.submit(TARGET_QUERY)["query_id"]
        _push_retune(sim, query_id, 0.5)
        v1_install = host.received(MsgType.INSTALL)[-1]
        v2 = _push_retune(sim, query_id, 0.25)
        assert host.agent.rates_version(query_id) == v2
        assert v1_install["rates"]["version"] < v2
        # The v1 frame arrives again, late.
        host.deliver(host.session, MsgType.INSTALL, v1_install)
        assert host.agent.rates_version(query_id) == v2
