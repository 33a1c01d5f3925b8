"""Session guard: a test run must leave nothing running.

Two PRs were rejected because a ``scrubd``, a shard worker or a
``/dev/shm/psm_*`` ring outlived the session that started it.  A
``multiprocessing`` resource tracker counts too once it has outlived the
process that started it (the shared-memory rings start one; their exit
hook stops it).  This session's own tracker is exempt: that hook stops
it when pytest exits, after this fixture has run.  After the
last test this fixture waits up to five seconds for stragglers to exit
and then fails the run, naming each one and the test that spawned it.

How a process is recognised (Linux only): pytest keeps
``PYTEST_CURRENT_TEST`` in its environment while a test runs, so
anything a test ``exec``s — a ``scrubd`` subprocess, and the shard
workers it forks — shows it in ``/proc/<pid>/environ``.  Such a process
is ours if its marked ancestry leads to this pytest process, or to pid 1
(its parent died: the orphaned daemon that sank those PRs).  A fork of
the pytest process itself (an in-process ``ShardPool`` worker) cannot
show the variable — ``/proc`` serves the environment block from
``exec`` time — so live forks are recognised by parentage alone.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

_MARK = b"PYTEST_CURRENT_TEST="


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:  # already gone, or not ours to read
        return b""


def _parent_and_state(pid: int) -> tuple[int, str]:
    # "pid (comm) state ppid ...": comm may itself hold spaces and ')'.
    fields = _read(f"/proc/{pid}/stat").rpartition(b")")[2].split()
    return (int(fields[1]), fields[0].decode()) if len(fields) > 1 else (0, "Z")


def _leaked_processes() -> list[str]:
    me = os.getpid()
    my_cmdline = _read(f"/proc/{me}/cmdline")
    leaks = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        pid = int(entry)
        parent, state = _parent_and_state(pid)
        if state == "Z":  # exited, merely unreaped
            continue
        environ = _read(f"/proc/{pid}/environ")
        cmdline = _read(f"/proc/{pid}/cmdline")
        if parent == me and b"multiprocessing.resource_tracker" in cmdline:
            continue  # this session's own; stopped when pytest exits
        forked_from_me = parent == me and cmdline == my_cmdline
        if _MARK not in environ and not forked_from_me:
            continue
        # Climb while the ancestors are marked too (bench.py -> scrubd ->
        # worker); an unmarked one that is not us is someone else's tree.
        while parent not in (me, 1) and _MARK in _read(f"/proc/{parent}/environ"):
            parent = _parent_and_state(parent)[0]
        if parent not in (me, 1):
            continue
        test = environ.partition(_MARK)[2].partition(b"\0")[0].decode(errors="replace")
        command = cmdline.replace(b"\0", b" ").decode(errors="replace").strip()
        leaks.append(f"pid {pid} [{command}] spawned by {test or 'a fork of pytest'}")
    return leaks


def _shm_rings() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


@pytest.fixture(scope="session", autouse=True)
def nothing_left_running():
    if not sys.platform.startswith("linux"):
        yield
        return
    rings_before = _shm_rings()
    yield
    deadline = time.monotonic() + 5.0
    while True:
        leaks = _leaked_processes()
        leaks += [f"/dev/shm/{name} (shared-memory ring)" for name in _shm_rings() - rings_before]
        if not leaks or time.monotonic() >= deadline:
            break
        time.sleep(0.1)
    if leaks:
        pytest.fail("the test session left these behind:\n  " + "\n  ".join(leaks), pytrace=False)
