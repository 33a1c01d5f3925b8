"""Per-query loss carry: what a transport lost goes back to its query.

A transport that loses a batch (a full outbox, a dead link) must not
lose what the central estimator needs from it: how many events went
missing and how many matched.  :class:`LossCarry` folds each lost batch
into its own query's entry — the batch's events and its own dropped
count become ``dropped``; its ``shed``, seen counts and quarantine
notice ride along — and :meth:`LossCarry.take` returns one loss-only
batch per query, written by the same writer as every flush, for the
transport to ship ahead of its next frame.  A loss-only batch that is
lost in turn is simply folded in again, so a quarantine notice is
resent until it is delivered.

What the carry cannot keep it counts: seen-count entries past
:data:`CARRY_SEEN_CAP` (``seen_overflow``) and a lost batch's host
partial aggregates (``partials_lost``).  Thread-safe: a producer
(``send()``) and a flusher thread may fold and take concurrently.
"""

from __future__ import annotations

import threading

from .transport import EventBatch, write_batch

__all__ = ["CARRY_SEEN_CAP", "LossCarry"]

#: Seen-count entries the carry holds, over all queries, while the link is down.
CARRY_SEEN_CAP = 1024


class _Loss:
    __slots__ = ("dropped", "shed", "seen_counts", "quarantined")

    def __init__(self) -> None:
        self.dropped = 0
        self.shed = 0
        self.seen_counts: dict[tuple[str, int], int] = {}
        self.quarantined = ""


class LossCarry:
    """Loss held per query until the next frame ships."""

    def __init__(self, host: str) -> None:
        self.host = host
        #: Seen-count entries that arrived with the carry full (not kept).
        self.seen_overflow = 0
        #: Host partial aggregates on lost batches (not carried).
        self.partials_lost = 0
        self._lock = threading.Lock()
        self._losses: dict[str, _Loss] = {}
        self._seen_entries = 0

    def __bool__(self) -> bool:
        return bool(self._losses)

    def add(self, batch: EventBatch) -> None:
        """Fold one lost batch into its query's carried loss."""
        with self._lock:
            loss = self._losses.get(batch.query_id)
            if loss is None:
                loss = self._losses[batch.query_id] = _Loss()
            loss.dropped += batch.event_count + batch.dropped
            loss.shed += batch.shed
            if batch.quarantined:
                loss.quarantined = batch.quarantined
            seen = loss.seen_counts
            for key, count in batch.seen_counts.items():
                if key in seen:
                    seen[key] += count
                elif self._seen_entries < CARRY_SEEN_CAP:
                    seen[key] = count
                    self._seen_entries += 1
                else:
                    self.seen_overflow += 1
            self.partials_lost += len(batch.partials)

    def take(self, sent_at: float) -> list[EventBatch]:
        """Empty the carry: one loss-only batch per query that lost any."""
        with self._lock:
            losses, self._losses = self._losses, {}
            self._seen_entries = 0
        out = []
        for query_id, loss in losses.items():
            if not (loss.dropped or loss.shed or loss.seen_counts or loss.quarantined):
                continue  # all it had overflowed (and was counted)
            batch, _ = write_batch(
                self.host,
                query_id,
                sent_at,
                dropped=loss.dropped,
                shed=loss.shed,
                quarantined=loss.quarantined,
                seen_counts=loss.seen_counts,
            )
            if batch is not None:
                out.append(batch)
        return out

    def clear(self) -> None:
        """Forget everything carried (the host process restarted)."""
        with self._lock:
            self._losses = {}
            self._seen_entries = 0
