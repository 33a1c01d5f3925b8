"""Fault tolerance: liveness leases, epoch takeover with install replay,
SYNC reconciliation, push-failure accounting, and degraded-window
coverage.

What the control plane *decides* (when a lease lapses, what a failed
push does to a query) is tested on the simulator with a manual clock;
what the daemon shell and the client *do with sockets* (redial, replay,
the one ``_push``) is tested over real TCP."""

import asyncio
import socket
import threading
import time

import pytest

from repro.core.agent.transport import EventBatch
from repro.core.control import Session
from repro.live.client import ControlClient, LiveAgent, LiveAgentError
from repro.live.protocol import MsgType
from repro.live.server import ScrubDaemon, _Peer

from .conftest import DaemonHarness, wait_for
from .sim import TARGET_QUERY, ControlSim

QUERY = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 10s group by pv.url duration 600s;"
)

PV_FIELDS = [("url", "string"), ("latency_ms", "double")]

@pytest.fixture
def fast_harness():
    h = DaemonHarness(lease_seconds=0.6, tick_interval=0.05).start()
    yield h
    h.stop()


@pytest.fixture
def ctl(fast_harness):
    client = ControlClient(fast_harness.address)
    yield client
    client.close()


def _agent(harness, name, **kwargs) -> LiveAgent:
    kwargs.setdefault("services", ["Frontends"])
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("reconnect_backoff_base", 0.05)
    agent = LiveAgent(harness.address, name, **kwargs)
    agent.define_event("pv", PV_FIELDS)
    agent.start()
    return agent


class TestLeases:
    def test_heartbeats_keep_the_lease_alive(self):
        sim = ControlSim(lease_seconds=0.6)
        host = sim.add_host("web-0")
        for _ in range(18):  # several lease windows, a heartbeat every 0.1s
            sim.advance(0.1)
            host.heartbeat()
            sim.tick()
        stats = sim.stats()
        assert [h["host"] for h in stats["hosts"]] == ["web-0"]
        assert stats["hosts"][0]["lease_age"] < 0.6
        assert host.last_error is None and host.session is not None

    def test_heartbeat_surfaces_query_costs(self, fast_harness, ctl):
        """Heartbeats carry the agent's per-query armed-cost counters;
        scrubd keeps the latest snapshot per host and reports it in
        STATS so operators can see what each live query costs where."""
        agent = _agent(fast_harness, "web-0")
        try:
            qid = ctl.submit(QUERY)["query_id"]
            assert wait_for(lambda: qid in agent.installed_query_ids)
            for i in range(40):
                agent.log("pv", {"url": "/a", "latency_ms": 1.0}, request_id=i)

            def costs():
                hosts = ctl.stats()["hosts"]
                if not hosts:
                    return None
                return hosts[0]["query_costs"].get(qid)

            assert wait_for(lambda: (costs() or {}).get("routed", 0) >= 40, timeout=5.0)
            cost = costs()
            assert cost["skipped"] >= 0
            assert cost["ewma_ns"] >= 0.0
        finally:
            agent.close()

    def test_silent_agent_lease_expires(self):
        sim = ControlSim(lease_seconds=0.6)
        host = sim.add_host("raw-0")
        qid = sim.submit(QUERY)["query_id"]
        assert [m["query_id"] for m in host.received(MsgType.INSTALL)] == [qid]

        # Never heartbeat: the plane must expire the lease, evict the
        # registration, and say why with a structured ERROR.
        sim.run(0.5)
        assert [h["host"] for h in sim.stats()["hosts"]] == ["raw-0"]
        sim.run(0.25)
        assert sim.stats()["hosts"] == []
        assert host.last_error["error"] == "lease-expired"
        assert host.session is None  # ... and closed the channel
        assert sim.stats()["queries"][qid]["delivery"]["raw-0"] == "lease-expired"


class TestReconnect:
    def test_restarted_agent_gets_installs_replayed(self, fast_harness, ctl):
        first = _agent(fast_harness, "web-0", reconnect=False)
        qid = ctl.submit(QUERY)["query_id"]
        assert wait_for(lambda: qid in first.installed_query_ids)

        # A "restarted process": same host name, fresh epoch.  It must
        # take the registration over and receive the open span again.
        second = _agent(fast_harness, "web-0", reconnect=False)
        try:
            assert wait_for(lambda: qid in second.installed_query_ids)
            assert wait_for(lambda: first._superseded)
            delivery = ctl.stats()["queries"][qid]["delivery"]
            assert delivery["web-0"] == "connected"
        finally:
            second.close()
            first.close()

    def test_agent_redials_and_reinstalls_after_link_loss(self, fast_harness, ctl):
        agent = _agent(fast_harness, "web-0")
        try:
            qid = ctl.submit(QUERY)["query_id"]
            assert wait_for(lambda: qid in agent.installed_query_ids)

            control = agent._control
            control.shutdown(socket.SHUT_RDWR)  # the network blips

            assert wait_for(lambda: agent.control_reconnects >= 1, timeout=5.0)
            assert wait_for(
                lambda: any(
                    h["host"] == "web-0" for h in ctl.stats()["hosts"]
                ),
                timeout=5.0,
            )
            assert qid in agent.installed_query_ids
            assert not agent._superseded
        finally:
            agent.close()

    def test_sync_uninstalls_queries_finished_while_disconnected(
        self, fast_harness, ctl, monkeypatch
    ):
        # The uninstall push is lost while the agent is away; the SYNC it
        # receives on re-registration must reconcile the stale span away.
        agent = _agent(fast_harness, "web-0")
        try:
            qid = ctl.submit(QUERY)["query_id"]
            assert wait_for(lambda: qid in agent.installed_query_ids)

            # Hold the redial until the span has finished, so the agent
            # is deterministically away when the UNINSTALL would push.
            gate = threading.Event()
            real_connect = agent._connect_control

            def gated_connect():
                assert gate.wait(10.0)
                return real_connect()

            monkeypatch.setattr(agent, "_connect_control", gated_connect)
            agent._control.shutdown(socket.SHUT_RDWR)

            assert wait_for(lambda: not ctl.stats()["hosts"], timeout=5.0)
            ctl.finish(qid)  # nobody to push UNINSTALL to
            gate.set()

            assert wait_for(
                lambda: qid not in agent.installed_query_ids, timeout=5.0
            )
            assert agent.control_reconnects >= 1
        finally:
            agent.close()


def _break_writer(harness, host: str, exc: Exception) -> None:
    """Make every write on *host*'s control socket raise *exc*, the way a
    dead asyncio transport does."""

    def boom(_data):
        raise exc

    harness.daemon.plane.fleet.conn(host).peer.writer.write = boom


class TestPushFailures:
    def test_failed_install_push_is_counted_not_fatal(self, fast_harness, ctl):
        agent = _agent(fast_harness, "web-0", reconnect=False)
        try:
            _break_writer(fast_harness, "web-0", RuntimeError("injected: transport is closed"))
            handle = ctl.submit(QUERY)
            assert handle["install_failures"] == ["web-0"]
            stats = ctl.stats()
            assert stats["push_failures"] == 1
            assert (
                stats["queries"][handle["query_id"]]["delivery"]["web-0"]
                == "unreachable"
            )
            # The dead session was evicted so a restart can re-register.
            assert wait_for(lambda: not ctl.stats()["hosts"])
        finally:
            agent.close()

    def test_sync_push_failure_on_reconnect_keeps_handler_alive(
        self, fast_harness, ctl, monkeypatch
    ):
        # An install replay that cannot be written must not escape the
        # connection handler and strand the registration: the failure is
        # counted, the delivery gap recorded, the dead session evicted —
        # and the host re-registers as soon as pushes work again.
        agent = _agent(fast_harness, "web-0")
        try:
            qid = ctl.submit(QUERY)["query_id"]
            assert wait_for(lambda: qid in agent.installed_query_ids)

            real_push = ScrubDaemon._push

            async def no_installs(self, peer, msg_type, message, timeout=None):
                if msg_type == MsgType.INSTALL:
                    return False
                return await real_push(self, peer, msg_type, message, timeout)

            monkeypatch.setattr(ScrubDaemon, "_push", no_installs)
            agent._control.shutdown(socket.SHUT_RDWR)  # force re-register

            assert wait_for(lambda: ctl.stats()["push_failures"] >= 1, timeout=5.0)
            assert ctl.stats()["queries"][qid]["delivery"]["web-0"] == "unreachable"

            monkeypatch.setattr(ScrubDaemon, "_push", real_push)
            assert wait_for(
                lambda: ctl.stats()["queries"][qid]["delivery"]["web-0"] == "connected",
                timeout=5.0,
            )
            assert [h["host"] for h in ctl.stats()["hosts"]] == ["web-0"]
            assert qid in agent.installed_query_ids
        finally:
            agent.close()
        # Disconnect cleanup still runs for the last session.
        assert wait_for(lambda: not ctl.stats()["hosts"])

    def test_finish_cannot_lose_a_query(self, fast_harness, ctl):
        """FINISH completes in the plane before any UNINSTALL is tried, so
        a push that raises — here the RuntimeError of a closed asyncio
        transport — cannot strand the query between running and finished
        or leak its engine registration."""
        agent = _agent(fast_harness, "web-0", reconnect=False)
        try:
            qid = ctl.submit(QUERY)["query_id"]
            assert wait_for(lambda: qid in agent.installed_query_ids)
            _break_writer(fast_harness, "web-0", RuntimeError("injected: transport is closed"))
            results = ctl.finish(qid)
            assert results.query_id == qid
            assert ctl.finish(qid) == results
            assert ctl.poll(qid) == results
            stats = ctl.stats()
            assert qid in stats["finished"] and qid not in stats["running"]
            assert not fast_harness.daemon.engine.is_registered(qid)
        finally:
            agent.close()


class _Writer:
    """A stand-in StreamWriter that raises on write once armed."""

    def __init__(self) -> None:
        self.fail_with = None
        self.frames: list[MsgType] = []
        self.closed = False

    def is_closing(self) -> bool:
        return self.closed

    def write(self, data: bytes) -> None:
        msg_type = MsgType(data[4])
        if self.fail_with is not None and msg_type != MsgType.HELLO_OK:
            raise self.fail_with
        self.frames.append(msg_type)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


_HELLO = {
    "services": ["Frontends"],
    "schemas": [{"name": "pv", "fields": [list(f) for f in PV_FIELDS], "doc": ""}],
}


class TestTheOnePush:
    """``ScrubDaemon._push`` is the only write to an agent's socket; every
    effect kind that reaches it, under every exception a dead link
    raises, ends in the same place: the plane told, nothing raised."""

    @staticmethod
    def _hello(daemon, name, epoch=1):
        writer = _Writer()
        session = Session(_Peer(writer))
        asyncio.run(
            daemon._perform(
                daemon.plane.hello(session, {"host": name, "epoch": epoch, **_HELLO}, 0.0)
            )
        )
        return session, writer

    @staticmethod
    def _request(daemon, msg_type, message, now=0.0):
        reply = _Writer()
        asyncio.run(daemon._perform(daemon.plane.request(msg_type, message, now), reply))
        return reply.frames

    @pytest.mark.parametrize(
        "exc", [ConnectionResetError("reset"), OSError("down"), RuntimeError("closed")],
        ids=["ConnectionError", "OSError", "RuntimeError"],
    )
    @pytest.mark.parametrize(
        "kind",
        ["install-submit", "install-sync", "install-widen", "install-retune",
         "uninstall-finish", "uninstall-abort", "error-evict"],
    )
    def test_a_failed_push_is_reported_not_raised(self, kind, exc):
        daemon = ScrubDaemon(port=0, lease_seconds=5.0, drain_margin=0.0)
        plane = daemon.plane
        victim, writer = self._hello(daemon, "web-0")
        rollout = {"canary_hosts": 1, "widen_factor": 2.0, "bake_intervals": 1}

        if kind == "install-submit":
            writer.fail_with = exc
            assert self._request(daemon, MsgType.SUBMIT, {"query": QUERY}) == [MsgType.SUBMIT_OK]
            (qid,) = plane.running
            assert plane.running[qid].install_failures == ["web-0"]
        elif kind == "install-sync":
            self._request(daemon, MsgType.SUBMIT, {"query": QUERY})
            (qid,) = plane.running
            writer = _Writer()
            writer.fail_with = exc
            session = Session(_Peer(writer))
            hello = {"host": "web-0", "epoch": 2, **_HELLO}
            asyncio.run(daemon._perform(plane.hello(session, hello, 0.0)))
            assert writer.frames == [MsgType.HELLO_OK]
        elif kind == "install-widen":
            self._hello(daemon, "web-1")
            self._request(daemon, MsgType.SUBMIT, {"query": QUERY, "rollout": rollout})
            (qid,) = plane.running
            (canary,) = plane.running[qid].rollout.installed
            if canary == "web-0":  # the victim must be the *next* tranche
                victim, writer = plane.fleet.conn("web-1"), plane.fleet.conn("web-1").peer.writer
            writer.fail_with = exc
            asyncio.run(daemon._perform(plane.tick(0.1)))
            assert plane.running[qid].rollout.state == "complete"
        elif kind == "install-retune":
            self._request(daemon, MsgType.SUBMIT, {"query": TARGET_QUERY})
            (qid,) = plane.running
            controller = plane.running[qid].controller
            controller.tick = lambda now: controller._issue(now, 1, 0.5, "relax")
            writer.fail_with = exc
            asyncio.run(daemon._perform(plane.tick(0.1)))
            assert controller.version == 1
        elif kind == "uninstall-finish":
            self._request(daemon, MsgType.SUBMIT, {"query": QUERY})
            (qid,) = plane.running
            writer.fail_with = exc
            assert self._request(daemon, MsgType.FINISH, {"query_id": qid}) == [MsgType.RESULTS]
            assert qid in plane.results and not daemon.engine.is_registered(qid)
        elif kind == "uninstall-abort":
            self._hello(daemon, "web-1")
            self._request(daemon, MsgType.SUBMIT, {"query": QUERY, "rollout": rollout})
            (qid,) = plane.running
            (canary,) = plane.running[qid].rollout.installed
            daemon.engine.ingest(
                EventBatch(host=canary, query_id=qid, events=[], quarantined="test")
            )
            plane.fleet.conn(canary).peer.writer.fail_with = exc
            asyncio.run(daemon._perform(plane.tick(0.1)))
            assert plane.running[qid].rollout.state == "aborted"
        else:  # error-evict: the lease lapses and even the goodbye fails
            writer.fail_with = exc
            asyncio.run(daemon._perform(plane.tick(6.0)))
            assert writer.closed

        if kind.startswith("install"):
            # Counted once, flagged for that query, the dead session gone.
            assert plane.push_failures == 1
            assert plane.running[qid].delivery[victim.host] == "unreachable"
            assert plane.fleet.conn(victim.host) is None
            assert victim.peer.writer.closed
        else:
            assert plane.push_failures == 0


class TestPermanentRejection:
    def test_schema_conflict_on_redial_is_fatal_not_retried(
        self, fast_harness, monkeypatch
    ):
        agent = _agent(fast_harness, "web-0")
        try:

            def reject():
                raise LiveAgentError(
                    "scrubd rejected agent 'web-0': pv conflicts",
                    reason="schema-conflict",
                )

            monkeypatch.setattr(agent, "_connect_control", reject)
            agent._control.shutdown(socket.SHUT_RDWR)  # force a redial

            assert wait_for(lambda: agent.fatal_error is not None, timeout=5.0)
            assert agent.fatal_error.reason == "schema-conflict"
            # The control loop stood down instead of hammering scrubd
            # with doomed re-registrations forever.
            agent._reader.join(timeout=2.0)
            assert not agent._reader.is_alive()
            assert agent.control_reconnects == 0
        finally:
            agent.close()

    def test_connection_blips_still_retry(self, fast_harness):
        # The fatal path must not creep into transient failures: a plain
        # link loss keeps the existing redial-and-reinstall behaviour.
        agent = _agent(fast_harness, "web-0")
        try:
            agent._control.shutdown(socket.SHUT_RDWR)
            assert wait_for(lambda: agent.control_reconnects >= 1, timeout=5.0)
            assert agent.fatal_error is None
        finally:
            agent.close()


class TestCoverage:
    def test_degraded_window_names_the_missing_host(self, fast_harness, ctl):
        a0 = _agent(fast_harness, "web-0")
        a1 = _agent(fast_harness, "web-1")
        qid = ctl.submit(QUERY)["query_id"]
        assert wait_for(lambda: qid in a0.installed_query_ids)
        assert wait_for(lambda: qid in a1.installed_query_ids)

        t0 = time.time()
        rid = 0
        for _ in range(4):
            a0.log("pv", url="/a", latency_ms=1.0, request_id=rid, timestamp=t0)
            rid += 1
            a1.log("pv", url="/a", latency_ms=1.0, request_id=rid, timestamp=t0)
            rid += 1
        assert a0.drain(10.0) and a1.drain(10.0)

        a1.close()  # web-1 goes away mid-span
        assert wait_for(
            lambda: [h["host"] for h in ctl.stats()["hosts"]] == ["web-0"]
        )
        # web-0 alone reports into a later window.
        for _ in range(4):
            a0.log("pv", url="/a", latency_ms=1.0, request_id=rid, timestamp=t0 + 15)
            rid += 1
        assert a0.drain(10.0)

        results = ctl.finish(qid)
        a0.close()
        windows = sorted(results.windows, key=lambda w: w.window_start)
        assert len(windows) == 2
        full, degraded = windows
        assert full.coverage is not None and not full.coverage.degraded
        assert sorted(full.coverage.reporting) == ["web-0", "web-1"]
        assert degraded.degraded
        assert degraded.coverage.reporting == ("web-0",)
        assert degraded.coverage.missing == {"web-1": "disconnected"}
        assert results.degraded_windows == [degraded]
        summary = results.coverage_summary()
        assert summary["degraded_windows"] == 1
