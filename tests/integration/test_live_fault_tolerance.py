"""Live mode under faults, end to end: three chaos scenarios.

1. **Agent crash + restart mid-span** (under per-frame delay chaos): the
   healthy host keeps the span alive, the gap windows are flagged
   degraded *naming the dead host*, the restarted process takes its
   registration over and resumes contributing, and the final counts
   conserve exactly — every logged event is either in a window count or
   in the host-side loss counters.  Every one of those is a decision of
   the control plane or arithmetic of the engine, so this scenario runs
   on the simulator (``tests/live/sim.py``): same plane, agents and
   engine, a virtual clock instead of six seconds of sleep.
2. **scrubd crash + journalled restart**: a ``--journal`` daemon killed
   mid-span and restarted on the same port resumes the open span, the
   agent re-attaches automatically (no new process, no re-submit), and
   POLL returns post-restart windows.
3. **Rolling partition**: links to two agents are severed and healed in
   turn; ``log()`` latency stays bounded, loss counters stay monotone,
   and the delivered counts + host loss conserve once the links heal.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.live.chaos import ChaosProxy
from repro.live.client import ControlClient, LiveAgent
from tests.live.sim import ControlSim, Faults

REPO_ROOT = Path(__file__).resolve().parents[2]

PV_FIELDS = [("url", "string"), ("latency_ms", "double")]

#: No event sampling: COUNT is exact, so conservation can be asserted
#: to the event.
QUERY = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 2s group by pv.url duration 600s;"
)

#: scrubd tuned for fault tests: fast ticks, a sub-second-ish lease, and
#: enough grace that proxy-delayed batches still make their window.
SCRUBD_ARGS = (
    "--tick", "0.05", "--grace", "1.0", "--lease", "0.8"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn_scrubd(*extra_args: str) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.live.server", *extra_args],
        cwd=REPO_ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    seen = []
    while True:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(f"scrubd exited before its banner:\n{''.join(seen)}")
        seen.append(line)
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1))


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=10.0)
    if proc.stdout is not None:
        proc.stdout.close()


def _wait(predicate, timeout: float = 15.0, interval: float = 0.05) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _total_count(results) -> int:
    """Sum of every COUNT(*) cell across every window."""
    return sum(int(row[1]) for w in results.windows for row in w.rows)


class _SteadyLogger(threading.Thread):
    """A background application thread: logs continuously, records the
    worst log() latency it ever saw, never stops until told."""

    def __init__(self, agent: LiveAgent, rid_base: int, period: float = 0.01):
        super().__init__(name=f"steady-{agent.host}", daemon=True)
        self.agent = agent
        self.rid = rid_base
        self.period = period
        self.count = 0
        self.max_latency = 0.0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            started = time.perf_counter()
            self.agent.log("pv", url="/s", latency_ms=1.0, request_id=self.rid)
            self.max_latency = max(
                self.max_latency, time.perf_counter() - started
            )
            self.rid += 1
            self.count += 1
            self._halt.wait(self.period)

    def halt(self) -> int:
        self._halt.set()
        self.join(timeout=10.0)
        assert not self.is_alive()
        return self.count


@pytest.mark.integration
@pytest.mark.chaos
def test_agent_kill_and_restart_mid_span_under_chaos():
    # Delay-only chaos on purpose: it perturbs timing (and reorders
    # frames) without destroying them, so the host-side loss counters
    # remain the exact ground truth and conservation can be asserted to
    # the event.
    sim = ControlSim(
        seed=7, lease_seconds=0.8, grace_seconds=1.0,
        faults=Faults(delay=(0.0, 0.02)),
    )
    steady = sim.add_host("agent-0")
    victim = sim.add_host("agent-1")
    qid = sim.submit(QUERY)["query_id"]
    sim.advance(0.05)  # the (delayed) INSTALL frames arrive
    logged = 0

    def live_for(seconds: float, *logging) -> None:
        nonlocal logged
        for step in range(round(seconds / 0.05)):
            sim.advance(0.05)
            for host in logging:
                logged += host.log()
            if step % 4 == 0:
                for host in sim.hosts.values():
                    host.agent.flush()
                    host.heartbeat()
            sim.tick()

    live_for(3.0, steady, victim)
    victim.agent.flush()
    sim.advance(0.05)  # phase 1 fully drained ...

    # ... then the worker process crashes mid-span: the host goes dark.
    kill_time = sim.now
    victim.restart()
    assert [h["host"] for h in sim.stats()["hosts"]] == ["agent-0"]
    live_for(6.0, steady)  # several whole windows with agent-1 dark

    # Restart: same host name, fresh process and epoch.
    restart_time = sim.now
    assert victim.connect()
    sim.advance(0.05)
    assert qid in victim.agent.active_query_ids  # the INSTALL was replayed
    live_for(3.0, steady, victim)
    for host in (steady, victim):
        host.agent.flush()
    sim.advance(0.05)
    results = sim.finish(qid)

    # Gap windows are degraded and name the dead host.
    gap_windows = [
        w for w in results.windows
        if "agent-1" in w.coverage.missing
        and kill_time < w.window_start < restart_time
    ]
    assert len(gap_windows) >= 2
    for w in gap_windows:
        # Coverage states are read when the window *closes*: a gap
        # window usually closes while the host is still down
        # ("disconnected", then "stale" once the fleet ages it out at
        # 2x the lease), but the last one can close just after the
        # reconnect — the host is back yet contributed nothing to that
        # window, which reads "silent".
        assert w.coverage.missing["agent-1"] in ("disconnected", "stale", "silent")
        assert w.coverage.reporting == ("agent-0",)
        assert w.degraded

    # The reconnected agent resumed contributing after restart.
    assert any(
        "agent-1" in w.coverage.reporting and w.window_start > kill_time
        for w in results.windows
    ), "restarted agent never contributed to a window"

    # Exact conservation: every logged event is either counted in a
    # window or sits in the loss counters the results carry.
    late = sum(w.late_events for w in results.windows)
    assert late == 0  # 20 ms of delay is well inside the grace period
    assert _total_count(results) + results.total_host_dropped == logged > 300


@pytest.mark.integration
@pytest.mark.chaos
def test_scrubd_restart_with_journal_resumes_span():
    port = _free_port()
    journal = str(REPO_ROOT / "tests" / "integration" / f".journal-{port}.tmp")
    if os.path.exists(journal):
        os.unlink(journal)
    daemon, _ = _spawn_scrubd(
        "--port", str(port), "--journal", journal, *SCRUBD_ARGS
    )
    agent = LiveAgent(
        ("127.0.0.1", port), "agent-0", services=["Frontends"],
        flush_batch_size=10, heartbeat_interval=0.2,
        reconnect_backoff_base=0.05,
    )
    agent.define_event("pv", PV_FIELDS)
    ctl = ControlClient(("127.0.0.1", port))
    daemon2 = None
    try:
        agent.start()
        qid = ctl.submit(QUERY)["query_id"]
        assert _wait(lambda: qid in agent.installed_query_ids)
        for i in range(50):
            agent.log("pv", url="/a", latency_ms=1.0, request_id=i)
        assert agent.drain(15.0)

        # scrubd dies hard mid-span.  The application keeps logging: the
        # transport drops at the host and counts, never blocks.
        ctl.close()
        _stop(daemon)
        for i in range(50, 70):
            agent.log("pv", url="/a", latency_ms=1.0, request_id=i)
        agent.flush()

        # Restart on the same port with the same journal.
        restart_time = time.time()
        daemon2, _ = _spawn_scrubd(
            "--port", str(port), "--journal", journal, *SCRUBD_ARGS
        )
        ctl2 = ControlClient(("127.0.0.1", port))

        # The span resumed from the journal and the agent re-attached on
        # its own — same process, no re-submit, no manual intervention.
        assert qid in ctl2.stats()["running"]
        assert _wait(
            lambda: [h["host"] for h in ctl2.stats()["hosts"]] == ["agent-0"]
        )
        assert _wait(lambda: agent.control_reconnects >= 1)
        assert qid in agent.installed_query_ids  # replayed INSTALL, still live

        # Recovery marked the not-yet-reattached host, then the reconnect
        # flipped it back to connected.
        assert ctl2.stats()["queries"][qid]["delivery"]["agent-0"] == "connected"

        for i in range(70, 120):
            agent.log("pv", url="/a", latency_ms=1.0, request_id=i)
        assert _wait(lambda: agent.drain(5.0), timeout=30.0)

        # POLL (not finish) already shows post-restart windows once the
        # real clock closes them.
        assert _wait(
            lambda: any(
                w.window_start >= restart_time - 2.0 and w.rows
                for w in ctl2.poll(qid).windows
            ),
            timeout=15.0,
        )

        results = ctl2.finish(qid)
        post = [w for w in results.windows if w.rows]
        assert post, "no windows survived the restart"
        # Everything delivered after the restart is counted.  Events from
        # the outage window split between host-side loss counters (failed
        # ships, carried forward) and the TCP black hole — batches written
        # into the dead socket's buffer before the RST arrived, which is
        # the documented crash loss (like windows open at crash time).
        # So: at least the post-restart events, never more than logged.
        assert _total_count(results) >= 50
        assert _total_count(results) + results.total_host_dropped <= 120

        # The recovered sequence floor: new queries never reuse q00001.
        assert ctl2.submit(QUERY)["query_id"] != qid
        ctl2.close()
    finally:
        agent.close()
        if daemon2 is not None:
            _stop(daemon2)
        _stop(daemon)
        if os.path.exists(journal):
            os.unlink(journal)


@pytest.mark.integration
@pytest.mark.chaos
def test_rolling_partition_bounded_latency_and_conservation():
    daemon, port = _spawn_scrubd("--port", "0", *SCRUBD_ARGS)
    proxies = [
        ChaosProxy(("127.0.0.1", port), seed=i) for i in range(2)
    ]
    agents = []
    for i, proxy in enumerate(proxies):
        agent = LiveAgent(
            proxy.address, f"part-{i}", services=["Frontends"],
            flush_batch_size=5, outbox_capacity=32,
            heartbeat_interval=0.2, reconnect_backoff_base=0.05,
        )
        agent.define_event("pv", PV_FIELDS)
        agents.append(agent)
    ctl = ControlClient(("127.0.0.1", port))
    loggers = [
        _SteadyLogger(agent, rid_base=(i + 1) * 1_000_000)
        for i, agent in enumerate(agents)
    ]
    try:
        for agent in agents:
            agent.start()
        assert _wait(lambda: len(ctl.stats()["hosts"]) == 2)
        qid = ctl.submit(QUERY)["query_id"]
        for agent in agents:
            assert _wait(lambda: qid in agent.installed_query_ids)
        for logger in loggers:
            logger.start()

        # Roll the partition across the fleet.  (The sweep in
        # tests/live/test_control_sim.py rolls it many more times, on a
        # virtual clock; this is the one pass over real sockets.)
        drops_before = [a.transport.dropped_events for a in agents]
        for index, proxy in enumerate(proxies):
            proxy.partition()
            time.sleep(1.0)  # > lease: the daemon notices
            proxy.heal()
            time.sleep(0.6)
            # Loss counters are monotone through the churn.
            now_dropped = agents[index].transport.dropped_events
            assert now_dropped >= drops_before[index]
            drops_before[index] = now_dropped

        # Both sides must come back: registration and data link.
        assert _wait(lambda: len(ctl.stats()["hosts"]) == 2, timeout=20.0)
        counts = [logger.halt() for logger in loggers]
        # One more flush after healing folds any carried loss into a
        # delivered batch; drain proves the link is live again.
        for agent in agents:
            assert _wait(lambda: agent.drain(5.0), timeout=30.0)

        results = ctl.finish(qid)
        for logger in loggers:
            assert logger.max_latency < 1.0, "log() stalled during partition"
        for agent in agents:
            assert agent.transport.outbox_depth <= 32

        # Degraded windows only ever name the partitioned hosts.
        for w in results.degraded_windows:
            assert set(w.coverage.missing) <= {"part-0", "part-1"}
        # Accounting never *invents* events: counted + counted-lost stays
        # within what was logged.  (Equality is not a property of
        # partitions: frames written into a socket buffer the instant
        # before the link is severed are acked by TCP yet never arrive —
        # the documented black-hole loss.  The delay-only chaos test
        # above is the exact-conservation check.)
        delivered = _total_count(results)
        assert 0 < delivered + results.total_host_dropped <= sum(counts)
    finally:
        for logger in loggers:
            logger._halt.set()
        ctl.close()
        for agent in agents:
            agent.close()
        for proxy in proxies:
            proxy.close()
        _stop(daemon)
