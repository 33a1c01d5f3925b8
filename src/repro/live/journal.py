"""The scrubd query journal: an append-only, fsync'd file of records.

The record format, what each kind means and how replay folds them into
a :class:`JournalState` live in ``repro.core.control.journal``; this
module is only the durable medium ``scrubd --journal`` appends the
control plane's ``Journal`` effects to, and reads back on startup.

A torn final record (the crash happened mid-append) is tolerated:
replay stops at the first undecodable line and the file is truncated
back to the last intact record before reopening for append — otherwise
the next append would concatenate onto the partial line, and a later
replay would stop there and silently drop everything written after the
recovery.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from ..core.control.journal import JournalState

__all__ = ["JournalState", "QueryJournal", "open_journal"]

_MAGIC = {"journal": "scrub-query-journal", "version": 1}


class QueryJournal:
    """Append-only, fsync'd record stream backing scrubd recovery."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.state, intact_bytes = self._load(path)
        if os.path.exists(path) and os.path.getsize(path) > intact_bytes:
            # Cut the torn tail off *before* reopening for append: the
            # next record must start on a clean line, not concatenate
            # onto the partial one the crash left behind.
            os.truncate(path, intact_bytes)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._file = open(path, "a", encoding="utf-8")
        if fresh:
            self.append(_MAGIC)

    # -- reading -------------------------------------------------------------------

    @staticmethod
    def _load(path: str) -> tuple[JournalState, int]:
        """Replay *path*: returns the recovered state plus the length in
        bytes of the journal's intact prefix — everything past it is the
        torn tail of a crashed append."""
        state = JournalState()
        intact_bytes = 0
        if not os.path.exists(path):
            return state, intact_bytes
        with open(path, "rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    # The crash hit before the record's newline made it
                    # out; even if the fragment happens to decode, the
                    # line is unfinished and must not be appended onto.
                    state.torn_records += 1
                    break
                line = raw.strip()
                if not line:
                    intact_bytes += len(raw)
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    # A torn append from the crash; everything before it
                    # is intact and everything after it cannot exist.
                    state.torn_records += 1
                    break
                if not isinstance(record, dict):
                    state.torn_records += 1
                    break
                state.apply(record)
                intact_bytes += len(raw)
        return state, intact_bytes

    # -- writing -------------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass


def open_journal(path: Optional[str]) -> Optional[QueryJournal]:
    """``None``-propagating constructor for optional-journal call sites."""
    return QueryJournal(path) if path else None
