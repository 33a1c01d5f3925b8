"""The per-event engine: the differential oracle for ``CentralEngine``.

Production processes rows in batches — ``ingest`` and ``ingest_frame``
segment a flush by window and hand each slice to
``WindowGroups.process_batch``, and a join window's rows go through the
same routine at close.  This module states the same semantics the way
the engine was first written, one event at a time: ``observe`` each
timestamp, feed each row to each aggregate state with ``update``, fold
each accepted value into its host's estimator summary as it arrives.
``tests/core/test_reference_differential.py`` holds both production
doors to it on the whole result surface and on ``CentralStats``.

What it shares with production is what no door does per event: batch
metadata bookkeeping (``_ingest_metadata``), window close and
finalisation, and the aggregate states themselves (which have their own
oracles in ``test_aggregates.py`` / ``test_sketch_differential.py``).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.core.agent.transport import EventBatch
from repro.core.central.aggregates import make_state
from repro.core.central.engine import CentralEngine, _RunningQuery
from repro.core.central.groupby import WindowGroups, _group_key_part
from repro.core.central.join import JoinBuffer
from repro.core.central.results import ResultRow

__all__ = ["ReferenceEngine", "process"]


def process(state: WindowGroups, row: Any) -> bool:
    """Feed one central row (Event or JoinedRow) to a window's state;
    returns False when the residual predicate rejected it."""
    p = state._p
    residual, group_fns, agg_arg_fns, select_fns = p.accessors
    if residual is not None and not residual(row):
        return False
    state.rows_processed += 1
    if not p.is_aggregating:
        state.raw_rows.append(ResultRow(tuple(fn(row) for fn in select_fns)))
        return True
    key = tuple(_group_key_part(fn(row)) for fn in group_fns)
    states = state.groups.get(key)
    if states is None:
        states = state.groups[key] = [make_state(agg) for agg in p.agg_calls]
    for aggregate_state, arg_fn in zip(states, agg_arg_fns):
        aggregate_state.update(arg_fn(row))
    return True


class ReferenceEngine(CentralEngine):
    """A ``CentralEngine`` whose ``ingest`` dispatches every row on its
    own (``ingest_frame`` is production's, inherited: feed this objects)."""

    def ingest(self, batch: EventBatch) -> None:
        rq = self._queries.get(batch.query_id)
        if rq is None:
            return
        for index, event in enumerate(batch.events):
            if not math.isfinite(event.timestamp):
                # Refused whole, before any bookkeeping, like every door.
                raise ValueError(
                    f"corrupt event batch: non-finite timestamp "
                    f"{event.timestamp!r} at event {index}"
                )
        stats = self.stats
        stats.batches_received += 1
        stats.events_received += len(batch.events)
        stats.bytes_received += len(batch.frame)

        self._ingest_metadata(rq, batch)

        for event in batch.events:
            indices = rq.tracker.observe(event.timestamp)
            if not indices:
                stats.events_late += 1
                rq.late_since_close += 1
                continue
            for window in indices:
                rq.hosts_by_window.setdefault(window, set()).add(event.host)
                if rq.spec.is_join:
                    buffer = rq.join_buffers.get(window)
                    if buffer is None:
                        buffer = rq.join_buffers[window] = JoinBuffer(rq.spec.sources)
                    buffer.add(event)
                    continue
                state = rq.windows.get(window)
                if state is None:
                    state = rq.windows[window] = rq.processor.make_window_state()
                if process(state, event) and rq.estimable_aggs:
                    self._accumulate_host_values(rq, window, event)

    def _accumulate_host_values(self, rq: _RunningQuery, window: int, event: Any) -> None:
        acc = rq.host_window_acc(window, event.host)
        arg_fns = rq.processor.accessors.agg_arg_fns
        for i in rq.estimable_aggs:
            if rq.processor.agg_calls[i].func == "COUNT":
                continue  # M_i alone estimates COUNT; no values needed
            value = arg_fns[i](event)
            if value is None:
                continue
            acc.counts[i] += 1
            acc.totals[i] += value
            acc.sum_sqs[i] += value * value

    def _take_window_state(self, rq: _RunningQuery, window: int) -> Optional[WindowGroups]:
        buffer = rq.join_buffers.pop(window, None)
        state = rq.windows.pop(window, None)
        if buffer is not None:
            if state is None:
                state = rq.processor.make_window_state()
            for row in buffer.join():
                process(state, row)
        return state
