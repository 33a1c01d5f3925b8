"""ScrubCentral: the dedicated centralized query execution facility.

All join, group-by and aggregation activity happens here, not on the
application hosts (paper Section 4).  The engine receives
:class:`~repro.core.agent.transport.EventBatch` objects from host
agents, assigns events to tumbling windows, joins on the request id,
groups, aggregates, and emits a :class:`WindowResult` when a window
closes.

Sampling estimation: for *global* aggregates (no GROUP BY) over a
single event type, the engine applies the multi-stage sampling
estimator of paper Eqs. 1–3, using the per-host per-window matched
counts (M_i) the agents report and the per-host value summaries it
accumulates during ingest.  Grouped aggregates are scaled by the
Horvitz–Thompson factor (hosts-planned / hosts-targeted) / event-rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, Optional

from ..approx.sampling_theory import (
    ApproxEstimate,
    MachineSample,
    estimate_avg,
    estimate_count,
    estimate_sum,
)
from ..agent.transport import EventBatch, decode_full_batch, decode_full_batch_rows
from ..query.ast import AggregateCall
from ..query.codegen import wire_rows
from ..query.errors import QueryNotFoundError, ScrubExecutionError
from ..query.planner import CentralQueryObject
from .groupby import Accessors, GroupByProcessor, WindowGroups
from .join import JoinBuffer
from .results import ResultRow, ResultSet, WindowCoverage, WindowResult
from .aggregates import make_state
from .window import SlidingWindowAssigner, TumblingWindowAssigner, WindowTracker

__all__ = ["CentralEngine", "CentralStats", "DEFAULT_GRACE_SECONDS"]

_timestamp_of = attrgetter("timestamp")

#: How long past a window's end the engine waits before closing it, to
#: absorb host flush delays.  Tuned to the agents' flush cadence.
DEFAULT_GRACE_SECONDS = 2.0

#: Joined rows handed to one ``process_batch`` at a window close: enough
#: to amortise the per-batch work, few enough that a large join's rows
#: are never all alive at once.
_JOIN_SLICE = 4096


@dataclass
class CentralStats:
    """Whole-engine accounting (feeds the throughput experiments)."""

    batches_received: int = 0
    events_received: int = 0
    #: Of ``events_received``, those ingested as wire rows — never built
    #: into an ``Event`` (docs/SCALING.md §"Fixed-layout row ingest").
    events_rowed: int = 0
    events_late: int = 0
    #: ``seen_counts`` entries that named an already-closed window.
    seen_counts_late: int = 0
    bytes_received: int = 0
    windows_emitted: int = 0
    rows_emitted: int = 0
    #: Matched events host governors shed (reported on batches).
    events_shed: int = 0
    #: (query, host) quarantine notices received from host governors.
    quarantines_reported: int = 0


@dataclass
class _HostWindowAcc:
    """Per (host, window) accumulation for the sampling estimator."""

    seen: int = 0  # M_i: matched events the host saw for this window
    # Parallel to the query's aggregate list: per-aggregate shipped-value
    # summaries (m_i, Σv, Σv²) — only filled for estimable aggregates.
    counts: list[int] = field(default_factory=list)
    totals: list[float] = field(default_factory=list)
    sum_sqs: list[float] = field(default_factory=list)


class _RunningQuery:
    """Per-query state inside the engine."""

    def __init__(
        self,
        spec: CentralQueryObject,
        planned_hosts: int,
        targeted_hosts: int,
        grace_seconds: float,
        targeted_names: tuple[str, ...] = (),
        delivery_state: Optional[Callable[[], Mapping[str, str]]] = None,
    ) -> None:
        self.spec = spec
        #: Host names chosen for this query; enables per-window coverage.
        self.targeted_names = targeted_names
        #: Live view of per-host delivery health (the daemon's lease
        #: table); consulted when a window closes to explain absences.
        self.delivery_state = delivery_state
        self.processor = GroupByProcessor(spec)
        if spec.slide_seconds is not None:
            assigner = SlidingWindowAssigner(
                spec.window_seconds, slide=spec.slide_seconds
            )
        else:
            assigner = TumblingWindowAssigner(spec.window_seconds)
        self.tracker = WindowTracker(assigner, grace_seconds)
        self.windows: dict[int, WindowGroups] = {}
        self.join_buffers: dict[int, JoinBuffer] = {}
        self.planned_hosts = planned_hosts
        self.targeted_hosts = targeted_hosts
        self.results = ResultSet(spec.query_id, spec.column_names)
        self.dropped_by_window: dict[int, int] = {}
        #: window -> host -> governor-shed counts attributed to it.
        self.shed_by_window: dict[int, dict[str, int]] = {}
        #: host -> structured governor quarantine reason (permanent: the
        #: host stays quarantined for every later window of this query).
        self.quarantined: dict[str, str] = {}
        self.hosts_by_window: dict[int, set[str]] = {}
        self.late_since_close = 0
        # Estimation applies to global aggregates over one source under
        # sampling; joins and grouped queries fall back to HT scaling.
        # A residual predicate would make the host-reported M_i counts
        # overcount the centrally-matched population, so estimation also
        # requires that all selection ran on the hosts.
        # TARGET CI queries are estimable even at full rates: estimation
        # is exact there (zero-width bounds), and running it from the
        # first window is what gives the sampling controller the variance
        # telemetry it inverts to pick cheaper rates.
        self.estimable = (
            (spec.sampling.is_sampled or spec.target_ci is not None)
            and not spec.group_by
            and len(spec.sources) == 1
            and spec.residual_predicate is None
            and spec.slide_seconds is None
            and not spec.host_aggregated
            and self.processor.is_aggregating
        )
        self.host_acc: dict[int, dict[str, _HostWindowAcc]] = {}
        self.estimable_aggs: tuple[int, ...] = ()
        if self.estimable:
            self.estimable_aggs = tuple(
                i
                for i, agg in enumerate(self.processor.agg_calls)
                if agg.func in ("COUNT", "SUM", "AVG")
            )

        #: Whether frames may be ingested as wire rows, which carry no
        #: per-row host and are segmented by tumbling-window arithmetic.
        self.takes_rows = (
            not spec.is_join and spec.slide_seconds is None and not self.processor.reads_host
        )
        self._row_accessors: dict[tuple[str, ...], Accessors] = {}

    def row_accessors(self, names: tuple[str, ...]) -> Accessors:
        """The query's accessors compiled over wire rows laid out as
        *names*, cached per layout (a query sees one per event type)."""
        accessors = self._row_accessors.get(names)
        if accessors is None:
            if len(self._row_accessors) >= 8:  # a peer inventing layouts
                self._row_accessors.clear()
            accessors = self._row_accessors[names] = self.processor.compile_accessors(
                wire_rows(names)
            )
        return accessors

    @property
    def scale_factor(self) -> float:
        host_scale = (
            self.planned_hosts / self.targeted_hosts if self.targeted_hosts else 1.0
        )
        return host_scale / self.spec.sampling.event_rate

    def host_window_acc(self, window: int, host: str) -> _HostWindowAcc:
        per_host = self.host_acc.setdefault(window, {})
        acc = per_host.get(host)
        if acc is None:
            acc = _HostWindowAcc(
                counts=[0] * len(self.processor.agg_calls),
                totals=[0.0] * len(self.processor.agg_calls),
                sum_sqs=[0.0] * len(self.processor.agg_calls),
            )
            per_host[host] = acc
        return acc


class CentralEngine:
    """The ScrubCentral facility: register queries, ingest, advance time."""

    def __init__(
        self,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
        on_window: Optional[Callable[[WindowResult], None]] = None,
    ) -> None:
        self._grace = grace_seconds
        self._queries: dict[str, _RunningQuery] = {}
        self._on_window = on_window
        self.stats = CentralStats()

    # -- query lifecycle -----------------------------------------------------

    def register(
        self,
        spec: CentralQueryObject,
        planned_hosts: int = 1,
        targeted_hosts: int = 1,
        targeted_names: tuple[str, ...] = (),
        delivery_state: Optional[Callable[[], Mapping[str, str]]] = None,
    ) -> None:
        """Install the central query object for a new query.

        *planned_hosts* is the host population the target expression
        matched (N); *targeted_hosts* is how many were actually chosen
        after host sampling (n).  When *targeted_names* is given, every
        emitted window carries a :class:`WindowCoverage` naming the
        targeted hosts that fed it and the ones that went missing;
        *delivery_state* (a callable returning host -> state) lets the
        caller explain *why* a host is absent (lease expired,
        disconnected, ...) rather than defaulting to "silent".
        """
        if spec.query_id in self._queries:
            raise ScrubExecutionError(f"query {spec.query_id} already registered")
        if targeted_hosts > planned_hosts:
            raise ScrubExecutionError(
                f"targeted hosts ({targeted_hosts}) exceed planned ({planned_hosts})"
            )
        self._queries[spec.query_id] = _RunningQuery(
            spec,
            planned_hosts,
            targeted_hosts,
            self._grace,
            targeted_names=tuple(targeted_names),
            delivery_state=delivery_state,
        )

    def extend_targets(
        self,
        query_id: str,
        names: tuple[str, ...],
        planned_delta: int = 0,
    ) -> None:
        """Widen a running query's targeted host set — the central half of
        an incremental (canary) rollout, and of late-joining agents being
        pulled into an already-running query.

        Newly added names join ``targeted_names`` so subsequent windows
        expect them in coverage; *planned_delta* grows the planned
        population when the new hosts were not part of the original
        resolve (a late joiner), keeping the sampling scale factor
        honest.  Coverage state lives on the parent process even under
        :class:`~repro.core.central.pool.ShardPool`, so this is safe for
        the pooled engine too.
        """
        rq = self._queries.get(query_id)
        if rq is None:
            raise ScrubExecutionError(f"query {query_id} is not registered")
        fresh = tuple(n for n in names if n not in rq.targeted_names)
        rq.planned_hosts += planned_delta
        if not fresh:
            return
        rq.targeted_names = rq.targeted_names + fresh
        rq.targeted_hosts += len(fresh)
        if rq.targeted_hosts > rq.planned_hosts:
            rq.planned_hosts = rq.targeted_hosts

    def is_registered(self, query_id: str) -> bool:
        return query_id in self._queries

    def registered_queries(self) -> tuple[str, ...]:
        return tuple(self._queries)

    # -- ingest ---------------------------------------------------------------

    def ingest(self, batch: EventBatch) -> None:
        """Consume one host flush.

        Batch-oriented: events are segmented by window once, then each
        window's slice goes through one residual/group/aggregate pass
        (:meth:`WindowGroups.process_batch`).  The per-event engine this
        replaced is the differential oracle in the test tree
        (``tests/core/reference_engine.py``).
        """
        rq = self._queries.get(batch.query_id)
        if rq is None:
            # The query ended while the batch was in flight; drop silently —
            # this is the expected race, not an error.
            return
        if not math.isfinite(sum(map(_timestamp_of, batch.events))):
            # No window can hold inf/nan: refuse the batch whole, before
            # any bookkeeping, as both wire doors do at the codec.
            for index, event in enumerate(batch.events):
                if not math.isfinite(event.timestamp):
                    raise ValueError(
                        f"corrupt event batch: non-finite timestamp "
                        f"{event.timestamp!r} at event {index}"
                    )
        stats = self.stats
        stats.batches_received += 1
        stats.events_received += len(batch.events)
        stats.bytes_received += batch.wire_size()

        self._ingest_metadata(rq, batch)
        if batch.events:
            for window, events in self._segment_events(rq, batch.events).items():
                self._process_window_events(rq, window, events)

    def ingest_frame(self, data: bytes | memoryview) -> None:
        """Consume one host flush still in its wire-frame form — the door
        ``scrubd`` uses for every socket batch.

        A frame whose events share one fixed layout (every payload value
        a ``long`` or ``double``) is ingested as *wire rows*: one
        ``struct.iter_unpack`` yields a tuple per event and the query's
        closures, compiled a second time to read tuple slots, feed the
        same :meth:`WindowGroups.process_batch` — no :class:`Event` is
        built (docs/SCALING.md §"Fixed-layout row ingest").  Any other
        frame, and any query rows cannot serve (joins, ``SLIDE``, reading
        ``host``), takes decode-then-:meth:`ingest`, whose results,
        accounting and errors the row path reproduces exactly.
        :class:`ShardPool` overrides this with its scan-and-slice path.
        """
        rowed = decode_full_batch_rows(data, self._takes_rows)
        if rowed is None:
            self.ingest(decode_full_batch(data))
            return
        meta, (rows, names, host, timestamps, _end) = rowed
        rq = self._queries[meta.query_id]
        stats = self.stats
        stats.batches_received += 1
        stats.events_received += len(rows)
        stats.events_rowed += len(rows)
        stats.bytes_received += len(data)

        self._ingest_metadata(rq, meta)
        tracker = rq.tracker
        length = tracker.assigner.length
        window = int(min(timestamps) // length)
        if window == int(max(timestamps) // length) and not tracker._is_closed(window):
            tracker._open.add(window)  # the usual flush: one open window
            segments = {window: rows}
        else:
            segments = self._segment_events(rq, rows, timestamps)
        accessors = rq.row_accessors(names)
        for window, members in segments.items():
            self._process_window_events(rq, window, members, accessors, host)

    def _takes_rows(self, query_id: str) -> bool:
        rq = self._queries.get(query_id)
        return rq is not None and rq.takes_rows

    def _ingest_metadata(self, rq: _RunningQuery, batch: EventBatch) -> None:
        """Batch-level bookkeeping: M_i counts, drop attribution, partials."""
        # Per-window matched counts (M_i) from the agent.  One for a window
        # already closed (a flush carried over an outage, a peer naming old
        # windows) is late like an event would be: nothing will ever close
        # that window again, so state created for it would never be freed.
        # Agents count per window *length* (``int(now // window_seconds)``),
        # which is the tracker's index only for tumbling windows; a SLIDE
        # query is never estimable and takes its coverage from the events
        # themselves, so its counts are not booked at all.
        is_closed = rq.tracker._is_closed
        seen_counts = batch.seen_counts if rq.spec.slide_seconds is None else {}
        for (_event_type, window), count in seen_counts.items():
            if is_closed(window):
                self.stats.seen_counts_late += 1
                rq.late_since_close += 1
                continue
            acc = rq.host_window_acc(window, batch.host)
            acc.seen += count
            rq.hosts_by_window.setdefault(window, set()).add(batch.host)

        if batch.dropped or batch.shed:
            # Both are booked on the latest open window.  With none open (a
            # query's first batch, a gap between windows) the batch's own
            # events have not opened theirs yet: open the latest window
            # seen_counts names — a lost event was counted as seen in the
            # same log() call — at its midpoint, so float floor division
            # cannot land one early.
            open_windows = rq.tracker.open_windows
            if not open_windows and batch.seen_counts:
                named = max(window for _event_type, window in batch.seen_counts)
                open_windows = rq.tracker.open_at((named + 0.5) * rq.spec.window_seconds)
            window = open_windows[-1] if open_windows else 0
            if batch.dropped:
                rq.dropped_by_window[window] = (
                    rq.dropped_by_window.get(window, 0) + batch.dropped
                )
            if batch.shed:
                per_host = rq.shed_by_window.setdefault(window, {})
                per_host[batch.host] = per_host.get(batch.host, 0) + batch.shed
                self.stats.events_shed += batch.shed

        if batch.quarantined:
            if batch.host not in rq.quarantined:
                self.stats.quarantines_reported += 1
            rq.quarantined[batch.host] = batch.quarantined

        for partial in batch.partials:
            self._ingest_partial(rq, batch.host, partial)

    def _segment_events(
        self, rq: _RunningQuery, events: list, timestamps: Iterable[float] = ()
    ) -> dict[int, list]:
        """Split a batch's events into per-window slices, counting lates.
        Wire rows come with their *timestamps* column; Events hold theirs.

        Tumbling windows take an inlined assignment fast path (one floor
        division per event); sliding windows go through the tracker's
        generic multi-assignment.  Late accounting matches the per-event
        path exactly: one late count per event all of whose windows have
        closed.
        """
        tracker = rq.tracker
        segments: dict[int, list] = {}
        assigner = tracker.assigner
        timestamps = timestamps or map(_timestamp_of, events)
        if type(assigner) is TumblingWindowAssigner:
            length = assigner.length
            closed_upto = tracker._closed_upto
            open_set = tracker._open
            late = 0
            for event, timestamp in zip(events, timestamps):
                index = int(timestamp // length)
                if closed_upto is not None and index <= closed_upto:
                    late += 1
                    continue
                slot = segments.get(index)
                if slot is None:
                    slot = segments[index] = []
                    open_set.add(index)
                slot.append(event)
            if late:
                tracker.late_events += late
                self.stats.events_late += late
                rq.late_since_close += late
        else:
            stats = self.stats
            for event, timestamp in zip(events, timestamps):
                indices = tracker.observe(timestamp)
                if not indices:
                    stats.events_late += 1
                    rq.late_since_close += 1
                    continue
                for window in indices:
                    segments.setdefault(window, []).append(event)
        return segments

    def _process_window_events(
        self, rq: _RunningQuery, window: int, events: list,
        accessors: Optional[Accessors] = None, host: Optional[str] = None,
    ) -> None:
        """Run one window's slice of a batch through join/group/aggregate.
        Wire rows come with the *accessors* that read them and the one
        *host* they share; Events need neither."""
        hosts = rq.hosts_by_window.get(window)
        if hosts is None:
            hosts = rq.hosts_by_window[window] = set()
        if host is not None:
            hosts.add(host)
        else:
            for event in events:
                hosts.add(event.host)
        if rq.spec.is_join:
            buffer = rq.join_buffers.get(window)
            if buffer is None:
                buffer = JoinBuffer(rq.spec.sources)
                rq.join_buffers[window] = buffer
            for event in events:
                buffer.add(event)
            return
        state = rq.windows.get(window)
        if state is None:
            state = rq.processor.make_window_state()
            rq.windows[window] = state
        accepted = state.process_batch(events, accessors)
        if rq.estimable_aggs and accepted:
            self._accumulate_host_values_batch(rq, window, accepted, accessors, host)

    def _ingest_partial(self, rq: _RunningQuery, host: str, partial) -> None:
        """Merge one host's pre-aggregated (window, group) contribution."""
        start = rq.tracker.assigner.start_of(partial.window)
        if not rq.tracker.observe(start):
            self.stats.events_late += 1
            rq.late_since_close += 1
            return
        rq.hosts_by_window.setdefault(partial.window, set()).add(host)
        state = rq.windows.get(partial.window)
        if state is None:
            state = rq.processor.make_window_state()
            rq.windows[partial.window] = state
        states = state.groups.get(partial.group_key)
        if states is None:
            states = [make_state(agg) for agg in rq.processor.agg_calls]
            state.groups[partial.group_key] = states
        for aggregate_state, payload in zip(states, partial.values):
            aggregate_state.merge_partial(payload)

    def _accumulate_host_values_batch(
        self, rq: _RunningQuery, window: int, events: list,
        accessors: Optional[Accessors] = None, host: Optional[str] = None,
    ) -> None:
        """Fold the accepted events' aggregate arguments into the sampling
        estimator's per-(host, window) summaries: one host-grouping pass,
        then per-host left folds in event order (float-identical to
        folding event by event).  Wire rows are read through their
        *accessors* and share one *host*."""
        by_host: dict[str, list] = {}
        if host is None:
            for event in events:
                by_host.setdefault(event.host, []).append(event)
        else:
            by_host[host] = events
        arg_fns = (accessors or rq.processor.accessors).agg_arg_fns
        agg_calls = rq.processor.agg_calls
        for host, host_events in by_host.items():
            acc = rq.host_window_acc(window, host)
            for i in rq.estimable_aggs:
                if agg_calls[i].func == "COUNT":
                    continue
                fn = arg_fns[i]
                count = acc.counts[i]
                total = acc.totals[i]
                sum_sq = acc.sum_sqs[i]
                for event in host_events:
                    value = fn(event)
                    if value is None:
                        continue
                    count += 1
                    total += value
                    sum_sq += value * value
                acc.counts[i] = count
                acc.totals[i] = total
                acc.sum_sqs[i] = sum_sq

    # -- window closing ------------------------------------------------------

    def advance(self, now: float) -> list[WindowResult]:
        """Close every window whose end + grace has passed; returns the
        emitted results (also appended to each query's ResultSet)."""
        emitted: list[WindowResult] = []
        for rq in self._queries.values():
            for window in rq.tracker.closable(now):
                emitted.append(self._close_window(rq, window))
        return emitted

    def finish(self, query_id: str, drain: bool = True) -> ResultSet:
        """End a query: close remaining windows, unregister, return results."""
        rq = self._queries.pop(query_id, None)
        if rq is None:
            raise QueryNotFoundError(query_id)
        if drain:
            for window in rq.tracker.close_all():
                self._close_window(rq, window)
        return rq.results

    def results_so_far(self, query_id: str) -> ResultSet:
        rq = self._queries.get(query_id)
        if rq is None:
            raise QueryNotFoundError(query_id)
        return rq.results

    def _take_window_state(self, rq: _RunningQuery, window: int) -> Optional[WindowGroups]:
        """Remove and return *window*'s group state, or None if nothing
        reached it.  Join queries defer all row processing to here: the
        window's buffered events are joined and go through
        ``process_batch`` in slices — a request's cross product is never
        held whole, and each state still sees its rows in join order."""
        buffer = rq.join_buffers.pop(window, None)
        state = rq.windows.pop(window, None)
        if buffer is not None:
            if state is None:
                state = rq.processor.make_window_state()
            joined = buffer.join()
            while rows := list(islice(joined, _JOIN_SLICE)):
                state.process_batch(rows)
        return state

    def _close_window(self, rq: _RunningQuery, window: int) -> WindowResult:
        rq.tracker.close(window)
        state = self._take_window_state(rq, window)
        if state is None:
            state = rq.processor.make_window_state()

        shed_hosts = rq.shed_by_window.pop(window, {})
        estimates: dict[str, ApproxEstimate] = {}
        overrides: dict[AggregateCall, Any] = {}
        if rq.estimable:
            estimates, overrides = self._estimate_window(rq, window, shed_hosts)
        rows = state.finalize(rq.scale_factor, overrides or None)

        reporting = rq.hosts_by_window.pop(window, set())
        shard_gaps = self._shard_gaps_for(rq, window)
        coverage: Optional[WindowCoverage] = None
        if rq.targeted_names or shard_gaps or shed_hosts or rq.quarantined:
            states = dict(rq.delivery_state()) if rq.delivery_state else {}
            missing: dict[str, str] = {}
            for host in rq.targeted_names:
                if host in reporting:
                    continue
                if host in rq.quarantined:
                    # The host's governor auto-uninstalled this query; it
                    # will never report again, whatever its link state.
                    missing[host] = "quarantined"
                    continue
                state_name = states.get(host, "silent")
                if state_name == "connected":
                    # Healthy link but nothing arrived for this window:
                    # matched nothing, or its flushes never made it.
                    state_name = "silent"
                missing[host] = state_name
            coverage = WindowCoverage(
                expected=rq.targeted_names,
                reporting=tuple(sorted(reporting)),
                missing=missing,
                shard_gaps=shard_gaps,
                shed=dict(shed_hosts),
                quarantined=dict(rq.quarantined),
            )

        result = WindowResult(
            query_id=rq.spec.query_id,
            window_start=rq.tracker.assigner.start_of(window),
            window_end=rq.tracker.assigner.end_of(window),
            columns=rq.spec.column_names,
            rows=rows,
            estimates=estimates,
            host_dropped=rq.dropped_by_window.pop(window, 0),
            host_shed=sum(shed_hosts.values()),
            late_events=rq.late_since_close,
            contributing_hosts=len(reporting),
            coverage=coverage,
        )
        rq.late_since_close = 0
        rq.host_acc.pop(window, None)
        rq.results.add(result)
        self.stats.windows_emitted += 1
        self.stats.rows_emitted += len(result.rows)
        if self._on_window is not None:
            self._on_window(result)
        return result

    def _shard_gaps_for(self, rq: _RunningQuery, window: int) -> dict[str, str]:
        """Central-side coverage gaps for one window; the serial engine
        has none — the ShardPool supervisor overrides this to report
        worker-respawn data loss."""
        del rq, window
        return {}

    def quarantines(self) -> dict[str, dict[str, str]]:
        """Governor quarantines reported by hosts, per running query:
        query_id -> host -> structured reason (for STATS surfaces)."""
        return {
            query_id: dict(rq.quarantined)
            for query_id, rq in self._queries.items()
            if rq.quarantined
        }

    def _estimate_window(
        self, rq: _RunningQuery, window: int, shed_hosts: Mapping[str, int] = {}
    ) -> tuple[dict[str, ApproxEstimate], dict[AggregateCall, Any]]:
        """Multi-stage sampling estimates for a global aggregate window."""
        per_host = rq.host_acc.get(window, {})
        n = rq.targeted_hosts
        # A host that reports is evidently part of the population, known
        # to the query server or not (a recovered server meets its hosts
        # again one by one; their batches do not wait for that).
        big_n = max(rq.planned_hosts, len(per_host))
        # Hosts that reported nothing still count as sampled machines with
        # M_i = 0 — omitting them would bias every estimate upward.
        silent_hosts = max(n - len(per_host), 0)

        estimates: dict[str, ApproxEstimate] = {}
        overrides: dict[AggregateCall, Any] = {}
        count_estimate: Optional[ApproxEstimate] = None

        match_counts = [acc.seen for acc in per_host.values()] + [0] * silent_hosts
        # COUNT first: AVG's ratio estimator reuses it.
        for i in rq.estimable_aggs:
            agg = rq.processor.agg_calls[i]
            if agg.func == "COUNT" or agg.func == "AVG":
                if count_estimate is None:
                    count_estimate = estimate_count(match_counts, big_n)
        for i in rq.estimable_aggs:
            agg = rq.processor.agg_calls[i]
            column = self._column_for_agg(rq, agg)
            if agg.func == "COUNT":
                assert count_estimate is not None
                estimates[column] = count_estimate
                overrides[agg] = count_estimate.estimate
            elif agg.func in ("SUM", "AVG"):
                samples = [
                    MachineSample(
                        machine_total=acc.seen,
                        count=acc.counts[i],
                        total=acc.totals[i],
                        sum_sq=acc.sum_sqs[i],
                    )
                    for acc in per_host.values()
                ] + [MachineSample(0, 0, 0.0, 0.0)] * silent_hosts
                sum_estimate = estimate_sum(samples, big_n)
                if agg.func == "SUM":
                    estimates[column] = sum_estimate
                    overrides[agg] = sum_estimate.estimate
                else:
                    assert count_estimate is not None
                    avg_estimate = estimate_avg(sum_estimate, count_estimate)
                    estimates[column] = avg_estimate
                    if math.isfinite(avg_estimate.estimate) and count_estimate.estimate:
                        overrides[agg] = avg_estimate.estimate

        # Governor shedding breaks the random-event-sample assumption of
        # Eqs. 1–3: during an over-budget interval every matched event is
        # dropped, so the retained values are time-biased.  Widen the
        # value-based bounds (SUM/AVG) by the shed fraction of the
        # matched population.  COUNT stays exact: shed events still
        # increment the host's M_i (they matched before they were shed).
        shed_total = sum(shed_hosts.values())
        if shed_total:
            seen_total = sum(match_counts)
            fraction = (
                1.0 if seen_total <= 0 else min(shed_total / seen_total, 1.0)
            )
            value_columns = {
                self._column_for_agg(rq, rq.processor.agg_calls[i])
                for i in rq.estimable_aggs
                if rq.processor.agg_calls[i].func in ("SUM", "AVG")
            }
            for column in value_columns & estimates.keys():
                estimates[column] = estimates[column].widened(fraction)
        return estimates, overrides

    @staticmethod
    def _column_for_agg(rq: _RunningQuery, agg: AggregateCall) -> str:
        """Output column whose SELECT expression contains *agg*; falls back
        to the aggregate's own text when it only appears nested."""
        from ..query.ast import unparse, walk_exprs

        for item, column in zip(rq.spec.select_items, rq.spec.column_names):
            if item.expr == agg:
                return column
        for item, column in zip(rq.spec.select_items, rq.spec.column_names):
            if any(node == agg for node in walk_exprs(item.expr)):
                return column
        return unparse(agg)
