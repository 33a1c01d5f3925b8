"""``scrubd`` loads neither scipy nor numpy.

Importing scipy.stats for one quantile function was most of the
daemon's import time and about three quarters of its resident memory
(docs/SCALING.md §4).  The quantile is now stdlib code
(``sampling_theory.t_quantile``); this keeps a heavyweight import from
creeping back in through any module the daemon loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_daemon_import_loads_no_scipy_or_numpy():
    probe = (
        "import json, sys\n"
        "import repro.live.server\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'numpy'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
