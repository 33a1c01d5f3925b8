"""The query journal's record format: builders and replay.

Scrub's data plane is deliberately lossy — drop, never block — but the
*control* plane (which query spans are open, which hosts they target)
must survive a ``scrubd`` crash, or every open troubleshooting session
dies with the daemon.  The journal is the smallest thing that restores
it: a sequence of JSON-shaped records.  The control plane emits them as
``Journal`` effects (always *ahead of* the pushes they describe), a
shell appends them somewhere durable (``repro.live.journal`` — a file,
fsync'd per append), and :meth:`JournalState.apply` folds them back into
the state a restarted plane recovers from.

Five record kinds:

* ``schema`` — an event schema an agent announced.  Replayed first so
  journalled query text re-validates before any agent reconnects.
* ``submit`` — one accepted query: id, text, span, and host placement
  (plus the rollout policy when the submit carried one).  The planner
  is deterministic in ``(text, query_id)``, so replay re-derives the
  identical central query object and sampling decisions.
* ``rollout`` — one rollout state-machine transition (canary install,
  widen, complete, abort) with the stage, rank order and installed set
  at that point.  Last record wins on replay, so a crash mid-rollout
  recovers into the same stage with the same hosts installed — no host
  is installed twice, none skipped.
* ``rates`` — one applied closed-loop sampling retune: the version and
  the ``(host_rate, event_rate)`` pair the controller shipped.  Last
  record wins on replay, so a plane killed mid-retune recovers with
  exactly the last *journalled* rate version and replays it to the
  fleet over the INSTALL path — agents compare versions, so hosts that
  already applied it ignore the replay and laggards converge.
* ``finish`` — the query's span ended and its results were collected;
  replay treats the submit (and any rollout or rates) as closed.

Events and result windows are *not* journalled — windows open at crash
time are lost, exactly like events lost to a full buffer, and the loss
is visible because post-recovery windows carry coverage metadata while
pre-crash ones are simply absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..events.schema import EventSchema, schema_from_payload, schema_to_payload

__all__ = [
    "JournalState",
    "finish_record",
    "rates_record",
    "rollout_record",
    "schema_record",
    "submit_record",
]


@dataclass
class JournalState:
    """Everything replay recovered from a journal."""

    #: Schemas announced before the crash, in announcement order.
    schemas: list[EventSchema] = field(default_factory=list)
    #: query_id -> its submit record, for submits without a finish.
    open_queries: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: query_id -> its latest rollout transition record (open queries
    #: only; a finish clears it).
    rollouts: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: query_id -> its latest applied sampling-rate record (open
    #: queries only; a finish clears it).
    rates: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: query_ids whose spans completed before the crash.
    finished: set[str] = field(default_factory=set)
    #: Records that failed to decode (torn tail) — at most one unless
    #: the file was hand-edited.
    torn_records: int = 0

    @property
    def max_sequence(self) -> int:
        """Highest qNNNNN sequence ever journalled, so a recovered plane
        never reissues a used query id."""
        best = 0
        for query_id in list(self.open_queries) + list(self.finished):
            try:
                best = max(best, int(query_id.lstrip("q")))
            except ValueError:
                continue
        return best

    def apply(self, record: dict[str, Any]) -> None:
        """Fold one record in.  Idempotent per record: last-record-wins
        tables and a set, so replaying a journal twice equals once."""
        op = record.get("op")
        if op == "schema":
            schema = schema_from_payload(record)
            if schema not in self.schemas:
                self.schemas.append(schema)
        elif op in ("submit", "rollout", "rates"):
            if record["query_id"] not in self.finished:
                table = {"submit": self.open_queries, "rollout": self.rollouts, "rates": self.rates}
                table[op][record["query_id"]] = record
        elif op == "finish":
            self.open_queries.pop(record["query_id"], None)
            self.rollouts.pop(record["query_id"], None)
            self.rates.pop(record["query_id"], None)
            self.finished.add(record["query_id"])


def schema_record(schema: EventSchema) -> dict[str, Any]:
    return {"op": "schema", **schema_to_payload(schema)}


def submit_record(
    query_id: str,
    text: str,
    activates_at: float,
    expires_at: float,
    planned: Iterable[str],
    targeted: Iterable[str],
    rollout: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    record = {
        "op": "submit", "query_id": query_id, "query": text,
        "activates_at": activates_at, "expires_at": expires_at,
        "planned": list(planned), "targeted": list(targeted),
    }
    if rollout is not None:
        record["rollout"] = rollout
    return record


def rollout_record(
    query_id: str,
    state: str,
    stage: int,
    order: Iterable[str],
    installed: Iterable[str],
    abort: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    record = {
        "op": "rollout", "query_id": query_id, "state": state, "stage": stage,
        "order": list(order), "installed": list(installed),
    }
    if abort is not None:
        record["abort"] = abort
    return record


def rates_record(
    query_id: str, version: int, host_rate: float, event_rate: float, reason: str = ""
) -> dict[str, Any]:
    return {
        "op": "rates", "query_id": query_id, "version": version,
        "host_rate": host_rate, "event_rate": event_rate, "reason": reason,
    }


def finish_record(query_id: str) -> dict[str, Any]:
    return {"op": "finish", "query_id": query_id}
