"""Fleet rollout under faults: SIGKILL a real scrubd mid-widen and recover
the exact journalled stage with install-count conservation (sockets: it
tests the shell's journal file and the agents' redial); churn the fleet
mid-rollout and complete over the hosts that still exist (simulated: it
is a decision of the control plane)."""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.live.client import ControlClient, LiveAgent

from .conftest import wait_for
from .sim import ControlSim

pytestmark = pytest.mark.chaos

REPO_ROOT = Path(__file__).resolve().parents[2]

PV_FIELDS = [("url", "string"), ("latency_ms", "double")]

QUERY = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 10s group by pv.url duration 600s;"
)

#: Fast ticks so rollout stages advance quickly; a 2s lease keeps the
#: agents' registrations alive across the daemon kill + redial window.
SCRUBD_ARGS = (
    "--tick", "0.05", "--grace", "1.0", "--lease", "2.0"
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


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _agent(port: int, name: str, **kwargs) -> LiveAgent:
    kwargs.setdefault("services", ["Frontends"])
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("reconnect_backoff_base", 0.05)
    kwargs.setdefault("reconnect_backoff_cap", 0.3)
    agent = LiveAgent(("127.0.0.1", port), name, **kwargs)
    agent.define_event("pv", PV_FIELDS)
    agent.start()
    return agent


def _last_rollout_record(journal: str, query_id: str) -> dict:
    """The journal's final rollout transition for *query_id* — by the
    last-record-wins replay rule, exactly what a recovered daemon must
    resume into."""
    last = None
    with open(journal, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("op") == "rollout" and record.get("query_id") == query_id:
                last = record
    assert last is not None, "no rollout record ever journalled"
    return last


def test_sigkill_mid_widen_recovers_journalled_stage_and_conserves_installs(
    tmp_path,
):
    """The chaos acceptance story: SIGKILL scrubd in the middle of a
    widening rollout; the journalled restart resumes the *same* stage
    with the *same* installed set (no host installed twice, none
    skipped), then completes — every agent saw exactly one effective
    install across the whole crash."""
    port = _free_port()
    journal = str(tmp_path / "scrubd.journal")
    daemon, _ = _spawn_scrubd(
        "--port", str(port), "--journal", journal, *SCRUBD_ARGS
    )
    agents: list[LiveAgent] = []
    ctl = ControlClient(("127.0.0.1", port))
    daemon2 = None
    try:
        agents = [_agent(port, f"web-{i}") for i in range(6)]
        assert wait_for(
            lambda: len(ctl.stats()["hosts"]) == 6, timeout=10.0
        )

        handle = ctl.submit(
            QUERY,
            rollout={"canary_hosts": 1, "widen_factor": 2.0,
                     "bake_intervals": 8},  # 0.4s of bake per stage
        )
        qid = handle["query_id"]
        assert len(handle["rollout"]["installed"]) == 1

        # Let the rollout widen at least once, then kill mid-flight
        # before it covers the fleet.
        def mid_widen():
            ro = ctl.stats()["rollouts"].get(qid)
            return (
                ro is not None
                and ro["state"] == "widening"
                and len(ro["installed"]) < 6
            )

        assert wait_for(mid_widen, timeout=10.0), "rollout never started widening"
        ctl.close()
        _stop(daemon)  # SIGKILL: no shutdown path, no final journal append

        # The ground truth is the journal, not a racy pre-kill snapshot.
        checkpoint = _last_rollout_record(journal, qid)
        assert checkpoint["state"] in ("canary", "widening")
        assert checkpoint["stage"] >= 1
        assert 0 < len(checkpoint["installed"]) < 6

        daemon2, _ = _spawn_scrubd(
            "--port", str(port), "--journal", journal, *SCRUBD_ARGS
        )
        ctl2 = ControlClient(("127.0.0.1", port))

        # Recovery resumes the exact journalled stage and placement.
        resumed = ctl2.stats()["rollouts"][qid]
        assert resumed["state"] == checkpoint["state"]
        assert resumed["stage"] == checkpoint["stage"]
        assert resumed["installed"] == checkpoint["installed"]
        assert resumed["order"] == checkpoint["order"]

        # Agents redial on their own; once the installed canaries are
        # back the bake resumes and the rollout runs to completion.
        assert wait_for(
            lambda: all(a.control_reconnects >= 1 for a in agents),
            timeout=15.0,
        )
        assert wait_for(
            lambda: ctl2.stats()["rollouts"][qid]["state"] == "complete",
            timeout=15.0,
        )
        final = ctl2.stats()["rollouts"][qid]
        assert sorted(final["installed"]) == [f"web-{i}" for i in range(6)]
        assert final["stage"] >= checkpoint["stage"]

        for agent in agents:
            assert wait_for(lambda a=agent: qid in a.installed_query_ids)
        # Exact install conservation across the crash: reconnect replays
        # of an already-armed query are deduplicated, so every host
        # counts precisely one effective install.
        assert [a.installs_applied for a in agents] == [1] * 6
        ctl2.close()
    finally:
        for agent in agents:
            agent.close()
        if daemon2 is not None:
            _stop(daemon2)
        _stop(daemon)


def test_agent_churn_mid_rollout_retires_aged_out_host_and_completes():
    """A pending (not yet installed) host dies mid-rollout and ages out
    of the fleet; the rollout must retire it from the rank order and
    complete over the hosts that still exist, instead of waiting forever
    for a ghost.  A decision of the plane: simulated, manual clock."""
    sim = ControlSim(lease_seconds=0.4)
    hosts = {f"churn-{i}": sim.add_host(f"churn-{i}") for i in range(6)}
    handle = sim.submit(
        QUERY,
        rollout={"canary_hosts": 1, "widen_factor": 2.0,
                 "bake_intervals": 12},  # 0.6s/stage: slower than age-out
    )
    qid = handle["query_id"]
    order = handle["rollout"]["order"]
    # Kill the lowest-ranked host — widening reaches it last, so it
    # ages out (0.8s: 2x the 0.4s lease) well before its slot comes.
    victim = order[-1]
    hosts[victim].hang_up()

    def fleet_state(name):
        return {r["host"]: r["state"] for r in sim.stats()["fleet"]}[name]

    for _ in range(60):  # 3 simulated seconds of 50 ms ticks
        sim.advance(0.05)
        for host in hosts.values():
            host.heartbeat()
        sim.tick()
        if sim.stats()["rollouts"][qid]["state"] == "complete":
            break
    assert fleet_state(victim) == "stale"
    final = sim.stats()["rollouts"][qid]
    assert final["state"] == "complete"
    survivors = [name for name in order if name != victim]
    assert final["order"] == survivors      # the ghost was retired
    assert final["installed"] == survivors  # everyone else runs it
    for name in survivors:
        assert qid in hosts[name].agent.active_query_ids
        assert hosts[name].installs_applied == 1
    assert hosts[victim].installs_applied == 0
    # Journal-before-fan-out held at every widen, and the retirement was
    # journalled too: a recovery lands in this exact placement.
    sim.recover()
    assert sim.stats()["rollouts"][qid] == final
