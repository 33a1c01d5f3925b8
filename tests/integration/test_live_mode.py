"""Multi-process live mode, end to end over localhost TCP.

Two acceptance properties of ``repro.live``:

1. **Equivalence** — a real ``scrubd`` subprocess fed by two agent
   subprocesses produces *exactly* the results an in-process
   ``DirectTransport`` run produces for the identical deterministic
   scenario (same query text, hosts, events, timestamps).  Everything
   that could diverge — planning, event sampling, window assignment,
   float arithmetic — is deterministic across processes by construction.

2. **Backpressure** — killing ``scrubd`` mid-span never blocks the
   application: ``log()`` keeps completing within a bounded latency while
   the transport's drop counter rises monotonically and its outbox stays
   bounded.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.api import ManualClock, Scrub
from repro.live.client import ControlClient, LiveAgent

from .live_agent_worker import PV_FIELDS, QUERY, events_for

REPO_ROOT = Path(__file__).resolve().parents[2]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn_scrubd(extra_args: tuple[str, ...] = ()) -> tuple[subprocess.Popen, int]:
    """Start scrubd on an ephemeral port; parse the port from its banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.live.server", "--port", "0", *extra_args],
        cwd=REPO_ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    seen = []
    while True:  # skip interpreter noise (e.g. runpy warnings) before the banner
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


def _wait_for_hosts(ctl: ControlClient, count: int, timeout: float = 15.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if len(ctl.stats()["hosts"]) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"{count} hosts never registered with scrubd")


def _normalize(results) -> list[tuple[float, tuple]]:
    """Window-order-and-row-order independent view of a ResultSet."""
    return sorted(
        (w.window_start, tuple(sorted(row.values for row in w.rows)))
        for w in results.windows
    )


def _reference_run(base: float):
    """The identical scenario through DirectTransport on a manual clock."""
    scrub = Scrub(clock=ManualClock(base - 1.0))
    scrub.define_event("pv", PV_FIELDS)
    agents = [
        scrub.add_host(f"agent-{i}", services=["Frontends"]) for i in range(2)
    ]
    handle = scrub.submit(QUERY)  # first query in both runs: q00001
    for index, agent in enumerate(agents):
        for event in events_for(index, base):
            agent.log(
                "pv",
                url=event["url"],
                latency_ms=event["latency_ms"],
                request_id=event["request_id"],
                timestamp=event["timestamp"],
            )
        agent.flush()
    return scrub.finish(handle.query_id)


@pytest.mark.integration
def test_live_matches_in_process_reference():
    daemon, port = _spawn_scrubd()
    workers: list[subprocess.Popen] = []
    ctl = ControlClient(("127.0.0.1", port))
    try:
        # Events are stamped in the near future so they land inside the
        # query span no matter how long registration takes.
        base = time.time() + 20.0
        for index in range(2):
            workers.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "tests.integration.live_agent_worker",
                        "--port", str(port),
                        "--index", str(index),
                        "--base", repr(base),
                    ],
                    cwd=REPO_ROOT,
                    env=_env(),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
            )
        _wait_for_hosts(ctl, 2)

        handle = ctl.submit(QUERY)
        assert handle["query_id"] == "q00001"
        assert sorted(handle["targeted_hosts"]) == ["agent-0", "agent-1"]

        for worker in workers:
            out, _ = worker.communicate(timeout=60.0)
            assert worker.returncode == 0, f"worker failed:\n{out}"
            assert "DONE" in out

        live = ctl.finish("q00001")
        reference = _reference_run(base)

        assert live.columns == reference.columns
        assert _normalize(live) == _normalize(reference)
        assert len(live.windows) >= 3  # timestamps span several windows
        for window in live.windows:
            assert window.contributing_hosts == 2
        assert live.total_host_dropped == reference.total_host_dropped == 0
    finally:
        ctl.close()
        for worker in workers:
            _stop(worker)
        _stop(daemon)


@pytest.mark.integration
def test_killing_scrubd_mid_span_never_blocks_logging():
    daemon, port = _spawn_scrubd()
    agent = LiveAgent(
        ("127.0.0.1", port),
        "bp-agent",
        services=["Frontends"],
        flush_batch_size=1,
        outbox_capacity=8,
    )
    agent.define_event("pv", PV_FIELDS)
    ctl = ControlClient(("127.0.0.1", port))
    try:
        agent.start()
        qid = ctl.submit(QUERY)["query_id"]
        deadline = time.time() + 15.0
        while qid not in agent.installed_query_ids:
            assert time.time() < deadline, "install push never arrived"
            time.sleep(0.05)

        # Healthy path first: the link demonstrably works...
        agent.log("pv", url="/warm", latency_ms=5.0, request_id=1)
        assert agent.drain(15.0)
        assert agent.transport.dropped_events == 0

        # ...then central dies mid-span.
        _stop(daemon)

        bound = 1.0  # seconds; log+flush must stay far from any network wait
        previous_dropped = 0
        for i in range(300):
            started = time.perf_counter()
            agent.log("pv", url="/x", latency_ms=5.0, request_id=100 + i)
            if i % 3 == 0:
                agent.flush()
            elapsed = time.perf_counter() - started
            assert elapsed < bound, f"log blocked for {elapsed:.2f}s after kill"
            dropped = agent.transport.dropped_events
            assert dropped >= previous_dropped  # monotone, never reset
            previous_dropped = dropped
            assert agent.transport.outbox_depth <= 8  # memory stays bounded
        agent.flush()
        assert agent.transport.dropped_events > 0
    finally:
        ctl.close()
        agent.close()
        _stop(daemon)


def _alive(pid: int) -> bool:
    """Is *pid* a running process (a zombie awaiting its reaper is not)?"""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _shm_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.mark.integration
@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not os.path.isdir("/dev/shm"),
    reason="needs Linux /proc and /dev/shm",
)
def test_sigterm_stops_pooled_scrubd_cleanly():
    """SIGTERM is a clean stop: exit code 0, shard workers joined (not
    orphaned), shared-memory rings unlinked."""
    segments_before = _shm_segments()
    daemon, _port = _spawn_scrubd(("--workers", "2"))
    try:
        with open(f"/proc/{daemon.pid}/task/{daemon.pid}/children") as listing:
            children = [int(pid) for pid in listing.read().split()]
        assert len(children) >= 2  # the shard workers (+ the resource tracker)
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=10.0) == 0
        # The resource tracker exits on its own once scrubd's end of
        # their pipe closes, an instant after wait() returns.
        deadline = time.time() + 1.0
        while any(map(_alive, children)) and time.time() < deadline:
            time.sleep(0.01)
        assert [pid for pid in children if _alive(pid)] == []
        assert _shm_segments() <= segments_before
    finally:
        _stop(daemon)
