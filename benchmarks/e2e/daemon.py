"""A real ``scrubd`` subprocess and what the kernel says about it.

The daemon runs in its own session, so the whole tree (pool workers,
the multiprocessing resource tracker) is found by session id in
``/proc`` and killed as one process group on every exit path.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
OUT_DIR = HERE / "out"

#: Every scrubd the benchmark starts carries its starter's pid here, so a
#: later invocation can find what a SIGKILLed one left behind.
OWNER_VAR = "SCRUB_E2E_OWNER"

_TICK = os.sysconf("SC_CLK_TCK")
_BANNER = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the tree's
    ``src`` on the path, and string hashing fixed so dict orders and
    collision chains repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _stat_fields(pid: int) -> Optional[list[str]]:
    """``/proc/<pid>/stat`` after the ``(comm)`` field (which may itself
    hold spaces and parentheses); None once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def session_pids(sid: int) -> list[int]:
    """Every live process whose session id is *sid* (zombies waiting for
    init to reap them are dead, not live)."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[3]) == sid and fields[0] != "Z":
                pids.append(int(entry))
    return pids


def cpu_seconds(pids: list[int]) -> float:
    """CPU time of *pids*: the scheduler's per-task run time (ns) where
    the kernel exposes it, else utime + stime (10 ms ticks) plus what each
    process has reaped from children."""
    nanos = 0
    for pid in pids:
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                nanos += int(Path(f"/proc/{pid}/task/{tid}/schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    if nanos:
        return nanos / 1e9
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(f) for f in fields[11:15])
    return ticks / _TICK


def rss_hwm_mib(pids: list[int]) -> float:
    """Peak resident set (``VmHWM``) summed over *pids*."""
    kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
        if match:
            kib += int(match.group(1))
    return kib / 1024.0


def _shm_segments(pids: list[int]) -> set[str]:
    """``/dev/shm`` files mapped by any of *pids* (the pool's rings)."""
    names: set[str] = set()
    for pid in pids:
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        names.update(re.findall(r"(/dev/shm/\S+)", maps))
    return names


def sweep_orphans() -> int:
    """Kill daemons whose benchmark process died without cleaning up
    (SIGKILL, OOM): anything carrying our marker whose owner is gone."""
    killed = 0
    marker = f"{OWNER_VAR}=".encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        for item in environ.split(b"\0"):
            if item.startswith(marker):
                owner = item[len(marker):].decode()
                if owner.isdigit() and not Path(f"/proc/{owner}").exists():
                    try:
                        os.kill(int(entry), signal.SIGKILL)
                        killed += 1
                    except (ProcessLookupError, PermissionError):
                        pass
    return killed


class Scrubd:
    """``python -m repro.live.server --port 0`` on an ephemeral port."""

    def __init__(self, extra_args: tuple[str, ...], cpu: Optional[int], tag: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"scrubd_{tag}.log"
        self.port = 0
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.live.server", "--port", "0", *extra_args],
                cwd=REPO_ROOT,
                env={**child_env(), OWNER_VAR: str(os.getpid())},
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        if cpu is not None:
            # The interpreter is still starting: it has one thread and no
            # children yet, and everything it creates inherits the mask.
            try:
                os.sched_setaffinity(self.proc.pid, {cpu})
            except OSError:
                pass
        self.pids = [self.proc.pid]

    def wait_for_banner(self, while_waiting=None, timeout: float = 60.0) -> int:
        """The port from the daemon's banner line; *while_waiting* is
        called once per poll of the log file."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
                self.refresh_tree()
                return self.port
            if self.proc.poll() is not None:
                break
            if while_waiting is not None:
                while_waiting()
            time.sleep(0.002)
        raise RuntimeError(
            f"scrubd did not start (exit code {self.proc.poll()}):\n"
            + self.log_path.read_text()[-2000:]
        )

    def refresh_tree(self) -> None:
        self.pids = session_pids(self.proc.pid) or [self.proc.pid]

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pids)

    def rss_hwm_mib(self) -> float:
        return rss_hwm_mib(self.pids)

    def stop(self) -> None:
        """Kill the whole session and unlink the shm segments it mapped (a
        SIGKILLed pool cannot unlink its own rings).  Not a clean shutdown
        on purpose: this path is the same after a finished run, an oracle
        failure and Ctrl-C, and it does not wait for worker joins."""
        self.refresh_tree()
        segments = _shm_segments(self.pids)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait(timeout=10.0)
        deadline = time.monotonic() + 5.0
        while session_pids(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.005)
        for path in segments:
            try:
                os.unlink(path)
            except OSError:
                pass
