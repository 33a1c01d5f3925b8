"""No process outlives the process that used a ``ShardPool``.

The pool's shared-memory rings start ``multiprocessing``'s resource
tracker.  Unless the pool stops it, the tracker is still running —
reparented to pid 1 — when the process that created the pool has
already been reaped.
"""

import os
import subprocess
import sys
import textwrap

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)

_SCRIPT = textwrap.dedent(
    """
    import atexit, os

    def no_children_left():
        # Registered first, so it runs after every exit hook the pool's
        # modules register: whatever is still our child now outlives us.
        me = str(os.getpid()).encode()
        for entry in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    fields = handle.read().rpartition(b")")[2].split()
            except OSError:
                continue
            if fields[1] == me and fields[0] != b"Z":
                print("still running at exit:", entry, flush=True)
                os._exit(3)

    atexit.register(no_children_left)

    from repro.core.central.pool import ShardPool

    pool = ShardPool(workers=2)
    assert pool.pool_health()["transport"] == "shm"
    pool.close()
    """
)


def _session_members(sid: int) -> list[str]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rpartition(b")")[2].split()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        # fields: state ppid pgrp session ...
        if int(fields[3]) == sid and fields[0] != b"Z":
            members.append(f"pid {entry}: {cmdline.strip()}")
    return members


def test_nothing_outlives_a_pool_user():
    # Checked twice: no child of the pool's user is running when it exits
    # (the script's last exit hook asserts it), and nothing of its
    # session survives it.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT], env=env, start_new_session=True
    )
    assert proc.wait(timeout=60) == 0
    # The session's id is the leader's pid; the leader is reaped now.
    assert _session_members(proc.pid) == []
