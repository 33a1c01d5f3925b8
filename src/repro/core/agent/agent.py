"""The Scrub host agent: the only Scrub code that runs on application hosts.

The agent holds the table of installed host query objects and exposes
the ``log()`` call the application invokes at event-generation points
(paper Section 3.1).  Per the design philosophy (Section 2), everything
here is built for minimal impact:

* **fast path**: with no query active for an event type, ``log()`` is a
  dict lookup and a counter increment — no event object is even built;
* armed queries are compiled to **generated, schema-specialized code**
  (``query/codegen.py``): one exec-compiled dispatcher per event type
  fuses selection and the sampling decision for every query routed to
  that type, sharing field loads and the request-id hash pre-mix;
* a **routing index** keyed on event type means ``log()`` never touches
  queries whose FROM clause names a different type;
* only **selection, projection and sampling** run here (Section 4); the
  agent never joins, groups or aggregates;
* the outbound buffer is bounded and **drops instead of blocking**;
  drops are counted and reported;
* queries **expire**: every installed query carries an absolute
  deadline derived from the query span, so forgotten queries cannot
  keep loading the host (Section 3.2);
* an optional **impact governor** (``governor.py``) bounds per-query
  CPU and network cost per interval, escalating runaway queries through
  sampling downgrade → load shedding (drop-with-count) → quarantine
  (auto-uninstall with a structured reason).  Wall time is charged via
  deterministic 1-in-N sampled timing (``TIMING_SAMPLE_EVERY``) so the
  governor does not inflate the budget it measures.

The agent is thread-safe: an internal lock guards the query tables and
every per-query counter, so an application thread in ``log()`` can race
a flusher thread (or an ``uninstall``) without losing accounting — the
seen/shipped/dropped/shed conservation invariant holds under
concurrency.  Transport sends happen outside the lock.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Optional

from ..central.aggregates import AggregateState, make_state
from ..central.groupby import _group_key_part
from ..events import Event, EventRegistry
from ..events.decorators import schema_of
from ..events.event import _rebuild_event
from ..query.codegen import (
    ArmedQuery,
    build_entry,
    build_processor,
    compile_expr,
    payload_rows,
)
from ..query.planner import HostQueryObject
from .buffer import BoundedBuffer
from .governor import TIMING_SAMPLE_EVERY, ImpactBudget, QueryGovernor
from .sampling import EventSampler
from .transport import EventBatch, PartialAggregate, Transport

__all__ = ["ScrubAgent", "AgentStats", "QueryStats"]

_perf = time.perf_counter

#: Smoothing factor for the per-query armed-cost EWMA (ns/routed call).
_EWMA_ALPHA = 0.2


@dataclass
class QueryStats:
    """Per-installed-query accounting on one host."""

    seen: int = 0      # events that matched selection (the estimator's M_i)
    shipped: int = 0   # events sampled in and buffered for transport
    dropped: int = 0   # events lost to a full buffer
    shed: int = 0      # events the impact governor dropped-with-count


@dataclass
class AgentStats:
    """Whole-agent accounting used by the overhead experiments."""

    events_logged: int = 0      # every log() call
    events_examined: int = 0    # log() calls that found >= 1 active query
    events_checked: int = 0     # (query, event) span+predicate evaluations
    events_matched: int = 0     # (query, event) selection matches
    events_shipped: int = 0     # (query, event) pairs buffered
    events_dropped: int = 0     # (query, event) pairs dropped at the buffer
    events_preaggregated: int = 0  # host-side aggregate-state updates
    events_shed: int = 0        # (query, event) pairs shed by the governor
    queries_quarantined: int = 0  # governor auto-uninstalls on this host
    batches_flushed: int = 0
    bytes_shipped: int = 0


class _InstalledQuery:
    """A host query object compiled and armed on this agent."""

    __slots__ = (
        "spec",
        "project_fields",
        "sampler",
        "sample_always",
        "window_seconds",
        "activates_at",
        "expires_at",
        "seen_by_window",
        "stats",
        "pending_dropped",
        "pending_shed",
        "group_fns",
        "agg_arg_fns",
        "partial_groups",
        "governor",
        "ewma_ns",
        "routed_base",
        "logged_base",
    )

    def __init__(
        self,
        spec: HostQueryObject,
        host: str,
        keep_all_fields: bool,
        activates_at: float,
        expires_at: float,
    ) -> None:
        self.spec = spec
        self.project_fields: Optional[tuple[str, ...]] = (
            None if keep_all_fields else spec.projection
        )
        self.sampler = EventSampler(spec.event_sampling_rate, spec.query_id)
        self.window_seconds = spec.window_seconds
        self.activates_at = activates_at
        self.expires_at = expires_at
        self.seen_by_window: dict[tuple[str, int], int] = {}
        self.stats = QueryStats()
        self.pending_dropped = 0
        self.pending_shed = 0
        #: Resolved once at install; avoids a governors-dict lookup per event.
        self.governor: Optional[QueryGovernor] = None
        #: Armed-cost EWMA (ns per routed call, dispatch share + match
        #: processing), fed by the 1-in-N timing samples; None until the
        #: first timed call routes this query's event type.
        self.ewma_ns: Optional[float] = None
        #: Route-group call count at install time — routed calls since
        #: install = group.calls - routed_base.
        self.routed_base = 0
        #: agent.stats.events_logged at install time, for the skipped count.
        self.logged_base = 0
        # AGGREGATE ON HOSTS mode: per-window per-group aggregate states
        # held on the host instead of shipping events (ablation mode —
        # note the memory grows with window x group cardinality, which is
        # exactly the host impact the paper's central execution avoids).
        self.group_fns = None
        self.agg_arg_fns = None
        self.partial_groups: dict[int, dict[tuple, list[AggregateState]]] = {}
        if spec.aggregation is not None:
            # Read straight off the payload log() was handed: a matched
            # event is folded into its group without an Event being built.
            shape = payload_rows(host)
            self.group_fns = [compile_expr(g, shape) for g in spec.aggregation.group_by]
            self.agg_arg_fns = [
                (lambda _data, _rid, _now: True)
                if agg.arg is None
                else compile_expr(agg.arg, shape)
                for agg in spec.aggregation.aggregates
            ]
        # Aggregating queries never consult the sampler (preaggregation
        # consumes every matched event), so their keep-bit is constant.
        self.sample_always = (
            spec.event_sampling_rate >= 1.0 or spec.aggregation is not None
        )

    def preaggregate(self, data: dict, rid: int, now: float, window: int) -> None:
        per_window = self.partial_groups.get(window)
        if per_window is None:
            per_window = {}
            self.partial_groups[window] = per_window
        key = tuple(_group_key_part(fn(data, rid, now)) for fn in self.group_fns)
        states = per_window.get(key)
        if states is None:
            states = [make_state(agg) for agg in self.spec.aggregation.aggregates]
            per_window[key] = states
        for state, arg_fn in zip(states, self.agg_arg_fns):
            state.update(arg_fn(data, rid, now))

    def drain_partials(self, cutoff_window: float) -> list[PartialAggregate]:
        """Extract partials for windows strictly below *cutoff_window*."""
        out: list[PartialAggregate] = []
        for window in sorted(self.partial_groups):
            if window >= cutoff_window:
                continue
            per_window = self.partial_groups.pop(window)
            for key, states in per_window.items():
                out.append(
                    PartialAggregate(
                        event_type=self.spec.event_type,
                        window=window,
                        group_key=key,
                        values=tuple(state.to_partial() for state in states),
                    )
                )
        return out

    @property
    def partial_state_count(self) -> int:
        """Group states currently held on this host (the memory metric)."""
        return sum(len(groups) for groups in self.partial_groups.values())


class _RouteGroup:
    """One event type's armed queries.  A group with a governor or a
    host aggregation is walked by ``_log_routed`` (*process* is its
    generated selection + sampling mask, bit order matching *entries*);
    any other group is served whole by a generated entry and has no
    *process*."""

    __slots__ = ("entries", "process", "governors", "calls")

    def __init__(
        self,
        entries: tuple[_InstalledQuery, ...],
        process: Optional[Callable[[dict, int, float], int]],
        governors: tuple[QueryGovernor, ...],
        calls: int,
    ) -> None:
        self.entries = entries
        self.process = process
        self.governors = governors
        #: log() calls routed to this event type; survives rebuilds.
        self.calls = calls


class ScrubAgent:
    """Per-host Scrub runtime embedded in the application process."""

    def __init__(
        self,
        host: str,
        registry: EventRegistry,
        transport: Transport,
        clock: Callable[[], float] = time.time,
        buffer_capacity: int = 10_000,
        flush_batch_size: int = 500,
        validate_payloads: bool = False,
        max_queries: Optional[int] = None,
        impact_budget: Optional[ImpactBudget] = None,
        timing_sample_every: Optional[int] = None,
    ) -> None:
        self.host = host
        self.registry = registry
        self.transport = transport
        self.clock = clock
        self.validate_payloads = validate_payloads
        #: Admission control: refuse installs beyond this many concurrent
        #: queries ("query load can at times be considerable", paper §1) —
        #: the host's impact budget is bounded no matter the demand.
        self.max_queries = max_queries
        #: Per-query impact budget; ``None`` disables the governor.
        self.impact_budget = impact_budget
        self._timing_every = (
            timing_sample_every if timing_sample_every is not None else TIMING_SAMPLE_EVERY
        )
        if self._timing_every < 1:
            raise ValueError("timing_sample_every must be >= 1")
        #: Buffered ship records: ``(iq, payload, request_id, timestamp)``.
        #: No ``Event`` exists until flush materializes the batch — event
        #: construction is paid off the application's hot path.
        self._buffer: BoundedBuffer[tuple[_InstalledQuery, dict, int, float]] = (
            BoundedBuffer(buffer_capacity)
        )
        self._flush_batch_size = flush_batch_size
        self._queries: dict[str, list[_InstalledQuery]] = {}  # query_id -> per-type
        self._by_type: dict[str, list[_InstalledQuery]] = {}  # event_type -> queries
        #: The routing index: event type -> its armed queries.
        #: Replaced wholesale (never mutated) under the lock, so the
        #: unlocked fast-path read in ``log()`` sees a consistent group.
        self._routes: dict[str, _RouteGroup] = {}
        #: event type -> the armed entry ``log()`` actually calls: the
        #: generated whole-path function, or — for a group with a
        #: governor or a host aggregation — a partial bound to
        #: ``_log_routed``.  Rebuilt in lock-step with ``_routes``.
        self._armed: dict[str, Callable[..., int]] = {}
        self._governors: dict[str, QueryGovernor] = {}
        #: query_id -> applied sampling-rate version (0 = install-time
        #: rates, never retuned); reported alongside query_costs so the
        #: central controller can tell when a retune has landed.
        self._rate_versions: dict[str, int] = {}
        #: Quarantine reasons awaiting their ride on the next flush.
        self._pending_quarantine: dict[str, str] = {}
        #: Permanent record: query_id -> structured quarantine reason.
        self.quarantined: dict[str, str] = {}
        # Guards the query tables and all per-query counters.  A plain
        # (non-reentrant) lock: every acquiring method — including the
        # auto-flush log() triggers — does its follow-up work after
        # release, and the hot path uses the hoisted bound methods below
        # with try/finally, which beats a ``with`` block by ~100 ns/call.
        self._lock = threading.Lock()
        self._lock_acquire = self._lock.acquire
        self._lock_release = self._lock.release
        self.stats = AgentStats()

    # -- query lifecycle -------------------------------------------------------

    def install(
        self,
        spec: HostQueryObject,
        activates_at: Optional[float] = None,
        expires_at: Optional[float] = None,
    ) -> None:
        """Arm one host query object on this agent.

        *expires_at* defaults to "never" only for callers that manage
        lifecycle themselves (the query server always passes the span
        deadline).
        """
        with self._lock:
            if (
                self.max_queries is not None
                and spec.query_id not in self._queries
                and len(self._queries) >= self.max_queries
            ):
                raise RuntimeError(
                    f"host {self.host}: query limit reached "
                    f"({self.max_queries} concurrent); not installing {spec.query_id}"
                )
            if spec.event_type not in self.registry:
                raise KeyError(
                    f"host {self.host}: cannot install query {spec.query_id} — "
                    f"event type {spec.event_type!r} not registered here"
                )
            schema = self.registry.get(spec.event_type)
            keep_all = set(spec.projection) >= set(schema.field_names)
            installed = _InstalledQuery(
                spec,
                self.host,
                keep_all_fields=keep_all,
                activates_at=activates_at if activates_at is not None else -math.inf,
                expires_at=expires_at if expires_at is not None else math.inf,
            )
            prior = self._routes.get(spec.event_type)
            installed.routed_base = prior.calls if prior is not None else 0
            installed.logged_base = self.stats.events_logged
            installed.governor = self._governors.get(spec.query_id)
            if installed.governor is None and self.impact_budget is not None:
                installed.governor = QueryGovernor(
                    self.impact_budget, spec.query_id, self.clock()
                )
            # Generate before touching any table: an expression the
            # emitter refuses (CodegenUnsupported) leaves nothing armed.
            per_type = self._by_type.get(spec.event_type, [])
            group, entry = self._build_group(
                spec.event_type, (*per_type, installed), installed.routed_base
            )
            self._queries.setdefault(spec.query_id, []).append(installed)
            self._by_type[spec.event_type] = [*per_type, installed]
            if installed.governor is not None:
                self._governors[spec.query_id] = installed.governor
            self._routes = {**self._routes, spec.event_type: group}
            self._armed = {**self._armed, spec.event_type: entry}

    def uninstall(self, query_id: str) -> bool:
        """Remove every host query object for *query_id*; flushes first so
        buffered events — and the seen/drop counters the estimator needs —
        are not orphaned.  Returns False if unknown."""
        with self._lock:
            if query_id not in self._queries:
                return False
            for iq in self._queries[query_id]:
                iq.expires_at = min(iq.expires_at, self.clock())
            # Rebuild so a racing log() stops matching this query even
            # before the flush below runs (dispatchers bake the span).
            self._rebuild_routes()
        self.flush()
        with self._lock:
            installed = self._queries.pop(query_id, None)
            self._governors.pop(query_id, None)
            self._rate_versions.pop(query_id, None)
            if installed is None:
                # The flush expired the query and already cleaned up.
                return True
            for iq in installed:
                per_type = self._by_type.get(iq.spec.event_type, [])
                if iq in per_type:
                    per_type.remove(iq)
                if not per_type:
                    self._by_type.pop(iq.spec.event_type, None)
            self._rebuild_routes()
        return True

    def retune(
        self, query_id: str, event_rate: float, version: Optional[int] = None
    ) -> bool:
        """Apply a controller-issued event-rate update to a live query.

        Per-query counters (seen/shipped windows, cost EWMAs, governor
        state) are untouched — only the samplers' thresholds move, and
        the dispatchers are regenerated because codegen bakes the
        threshold into the fused entry.  The keyed sampler makes the
        change nested: lowering the rate keeps a strict subset of the
        request ids kept before.  Stale versions (≤ the applied one) are
        ignored so reordered INSTALL replays cannot roll a rate back.
        Returns False for unknown queries and stale versions.
        """
        if not 0.0 < event_rate <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {event_rate}")
        with self._lock:
            installed = self._queries.get(query_id)
            if installed is None:
                return False
            if version is not None and version <= self._rate_versions.get(query_id, 0):
                return False
            for iq in installed:
                iq.sampler.set_rate(event_rate)
                iq.sample_always = (
                    event_rate >= 1.0 or iq.spec.aggregation is not None
                )
            if version is not None:
                self._rate_versions[query_id] = version
            self._rebuild_routes()
        return True

    def rates_version(self, query_id: str) -> int:
        """The sampling-rate version currently applied for *query_id*
        (0 = install-time rates)."""
        with self._lock:
            return self._rate_versions.get(query_id, 0)

    @property
    def active_query_ids(self) -> tuple[str, ...]:
        return tuple(self._queries)

    def query_stats(self, query_id: str) -> QueryStats:
        """Aggregated stats across this query's per-type objects."""
        with self._lock:
            installed = self._queries.get(query_id)
            if not installed:
                raise KeyError(f"query {query_id} not installed on {self.host}")
            total = QueryStats()
            for iq in installed:
                total.seen += iq.stats.seen
                total.shipped += iq.stats.shipped
                total.dropped += iq.stats.dropped
                total.shed += iq.stats.shed
            return total

    def governor_state(self) -> dict[str, dict]:
        """Per-query governor snapshots (stage, rate factor, breaches)."""
        with self._lock:
            return {
                query_id: gov.snapshot()
                for query_id, gov in self._governors.items()
            }

    def query_costs(self) -> dict[str, dict[str, Any]]:
        """Per-query armed-cost counters for live impact visibility.

        For each installed query: ``ewma_ns`` — smoothed cost in ns per
        routed ``log()`` call (its share of the fused dispatcher plus
        any match processing, from the 1-in-N timing samples; summed
        over the query's per-type objects); ``routed`` — calls the
        schema routing index sent to this query's dispatcher(s);
        ``skipped`` — calls the index let bypass it entirely.
        Surfaced through scrubd STATS via the agent heartbeat.
        """
        with self._lock:
            logged = self.stats.events_logged
            out: dict[str, dict[str, Any]] = {}
            for query_id, installed in self._queries.items():
                ewma = 0.0
                routed = 0
                skipped = 0
                for iq in installed:
                    group = self._routes.get(iq.spec.event_type)
                    calls = group.calls if group is not None else iq.routed_base
                    routed_i = calls - iq.routed_base
                    routed += routed_i
                    skipped += (logged - iq.logged_base) - routed_i
                    if iq.ewma_ns is not None:
                        ewma += iq.ewma_ns
                out[query_id] = {
                    "ewma_ns": round(ewma, 1),
                    "routed": routed,
                    "skipped": skipped,
                    # The applied rate version rides the same heartbeat
                    # payload: the controller treats its absence (an old
                    # agent) or a lagging value as reason to freeze.
                    "rates_version": self._rate_versions.get(query_id, 0),
                }
            return out

    # -- the routing index -------------------------------------------------------

    def _rebuild_routes(self) -> None:
        """Regenerate the per-event-type entries from ``_by_type``.

        Called under the lock on every query-table mutation (uninstall,
        retune, quarantine, expiry) — the rare path pays codegen so the
        per-event path stays straight-line.  Route-group call counters
        carry over so routed/skipped accounting survives."""
        old = self._routes
        routes: dict[str, _RouteGroup] = {}
        armed: dict[str, Callable[..., int]] = {}
        for event_type, iqs in self._by_type.items():
            if not iqs:
                continue
            prior = old.get(event_type)
            routes[event_type], armed[event_type] = self._build_group(
                event_type, tuple(iqs), prior.calls if prior is not None else 0
            )
        self._routes = routes
        self._armed = armed

    def _build_group(
        self,
        event_type: str,
        entries: tuple[_InstalledQuery, ...],
        calls: int,
    ) -> tuple[_RouteGroup, Callable[..., int]]:
        """One event type's route group and the armed entry ``log()``
        calls for it.  Which of the two routes it gets is decided by what
        the group holds, never by an option: a governor or a host
        aggregation needs the agent's walk; everything else runs as one
        generated function."""
        governors: list[QueryGovernor] = []
        for iq in entries:
            gov = iq.governor
            if gov is not None and gov not in governors:
                governors.append(gov)
        armed = tuple(
            ArmedQuery(
                predicate=iq.spec.predicate,
                sampler_seed=iq.sampler._seed,
                sampler_threshold=iq.sampler._threshold,
                sample_always=iq.sample_always,
                activates_at=iq.activates_at,
                expires_at=iq.expires_at,
                iq=iq,
                qstats=iq.stats,
                window_seconds=iq.window_seconds,
                project=iq.project_fields,
            )
            for iq in entries
        )
        if governors or any(iq.group_fns is not None for iq in entries):
            process = build_processor(armed, host=self.host, stats=self.stats)
            group = _RouteGroup(entries, process, tuple(governors), calls)
            return group, partial(self._log_routed, group, event_type)
        group = _RouteGroup(entries, None, (), calls)
        entry = build_entry(
            armed,
            event_type=event_type,
            host=self.host,
            stats=self.stats,
            buffer=self._buffer,
            flush_batch_size=self._flush_batch_size,
            group=group,
            clock=self.clock,
            lock_acquire=self._lock_acquire,
            lock_release=self._lock_release,
            flush=self.flush,
            timing_every=self._timing_every,
            ewma_alpha=_EWMA_ALPHA,
            registry_get=self.registry.get if self.validate_payloads else None,
        )
        return group, entry

    # -- the hot path ------------------------------------------------------------

    def log(
        self,
        event_type: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        request_id: int,
        timestamp: Optional[float] = None,
        **fields: Any,
    ) -> int:
        """Record an application event; returns how many queries consumed it.

        With no active query on *event_type* this returns after one dict
        lookup — the fast path whose cost the overhead experiments
        measure (kept to a minimal frame on purpose: the armed path
        lives behind the ``_armed`` entry — generated code, or
        ``_log_routed`` for a governed or host-aggregating group — so
        the disabled probe never pays for its locals).  Field values may
        be given as a mapping, as keyword arguments, or both (kwargs win).
        """
        self.stats.events_logged += 1
        entry = self._armed.get(event_type)
        if entry is None:
            return 0
        return entry(payload, request_id, timestamp, fields)

    def _log_routed(
        self,
        group: _RouteGroup,
        event_type: str,
        payload: Optional[Mapping[str, Any]],
        request_id: int,
        timestamp: Optional[float],
        fields: dict[str, Any],
    ) -> int:
        """The governed walk — the armed half of ``log()`` for an event
        type with a governor or a host aggregation on it: generated code
        decides selection and sampling for every entry at once (the
        mask), and this walk does what a match then needs — governor
        rolls and charges, shedding, pre-aggregation, thinning, the
        buffer offer."""
        stats = self.stats
        stats.events_examined += 1
        now = timestamp if timestamp is not None else self.clock()
        if payload is None:
            data: dict[str, Any] = fields
        elif fields:
            data = {**payload, **fields}
        elif type(payload) is dict:
            data = payload
        else:
            data = dict(payload)
        if self.validate_payloads:
            data = self.registry.get(event_type).coerce_payload(data)

        # The group snapshot read by log() is processed as-is (legacy
        # behaviour: log() iterated an unlocked watcher-list snapshot);
        # a racing uninstall's events land in flush's leftover path.
        # Only a quarantine triggered *in this call* re-reads routes.
        self._lock_acquire()
        try:
            governors = group.governors
            if governors:
                # Governors come from the agent-wide budget, so whatever a
                # quarantine leaves of this group is still governed.
                requarantined = False
                for gov in governors:
                    reason = gov.roll(now)
                    if reason is not None:
                        # This query just exhausted its impact budget:
                        # quarantine (auto-uninstall); the reason rides
                        # the final flush.  This event is not processed.
                        self._note_quarantine(gov.query_id, reason, now)
                        requarantined = True
                if requarantined:
                    group = self._routes.get(event_type)
                    if group is None:
                        return 0
            group.calls += 1
            timed = group.calls % self._timing_every == 0
            if timed:
                t0 = _perf()
                m = group.process(data, request_id, now)
                dispatch_dt = _perf() - t0
                proc: dict[int, float] = {}
            else:
                m = group.process(data, request_id, now)
            matched = 0
            entries = group.entries
            buffer = self._buffer
            idx = 0
            while m:
                if m & 1:
                    if timed:
                        tq = _perf()
                    iq = entries[idx]
                    matched += 1
                    qstats = iq.stats
                    qstats.seen += 1
                    window = int(now // iq.window_seconds)
                    key = (event_type, window)
                    sbw = iq.seen_by_window
                    sbw[key] = sbw.get(key, 0) + 1
                    gov = iq.governor
                    if gov is not None and gov.shedding:
                        # Drop-with-count: the event still counted toward
                        # M_i (COUNT stays exact); no preaggregate, no ship.
                        qstats.shed += 1
                        iq.pending_shed += 1
                        stats.events_shed += 1
                        gov.note_shed()
                    elif iq.group_fns is not None:
                        iq.preaggregate(data, request_id, now, window)
                        stats.events_preaggregated += 1
                    elif m & 2 and (gov is None or gov.keep(request_id)):
                        # Bit 2 is the event sampler's verdict; gov.keep is
                        # downgrade-stage thinning — an honest random
                        # subsample (keyed on request id), so the
                        # estimator's event-stage variance absorbs it.
                        project = iq.project_fields
                        if project is None:
                            shipped = dict(data)
                        else:
                            shipped = {k: data[k] for k in project if k in data}
                        if buffer.offer_unlocked((iq, shipped, request_id, now)):
                            qstats.shipped += 1
                            stats.events_shipped += 1
                        else:
                            qstats.dropped += 1
                            iq.pending_dropped += 1
                            stats.events_dropped += 1
                            if gov is not None:
                                gov.note_drop()
                    if timed:
                        proc[idx] = _perf() - tq
                m >>= 2
                idx += 1
            stats.events_matched += matched
            flush_due = len(buffer._items) >= self._flush_batch_size
            if timed:
                # Charge sampled wall time scaled by N (unbiased per
                # interval) and refresh each query's armed-cost EWMA:
                # an even share of the generated mask plus the query's
                # own match processing.
                scale = float(self._timing_every)
                share = dispatch_dt / len(entries)
                for i, iq in enumerate(entries):
                    cost = share + proc.get(i, 0.0)
                    gov = iq.governor
                    if gov is not None:
                        gov.charge(cost * scale)
                    cost_ns = cost * 1e9
                    prev = iq.ewma_ns
                    iq.ewma_ns = (
                        cost_ns
                        if prev is None
                        else prev + _EWMA_ALPHA * (cost_ns - prev)
                    )
        finally:
            self._lock_release()
        if flush_due:
            self.flush(now)
        return matched

    def log_object(self, obj: Any, *, request_id: int, timestamp: Optional[float] = None) -> int:
        """``log()`` for instances of ``@scrub_type`` classes (paper Fig. 1)."""
        schema = schema_of(obj)
        return self.log(
            schema.name, obj.payload(), request_id=request_id, timestamp=timestamp
        )

    # -- flushing ------------------------------------------------------------------

    def flush(self, now: Optional[float] = None) -> int:
        """Drain the buffer into per-query batches and hand them to the
        transport.  Also emits empty 'heartbeat' batches for queries with
        pending seen/drop/shed counters (or a quarantine notice) so the
        central estimator learns M_i even when sampling shipped nothing.
        Batches are built under the agent lock — counters move from the
        tables into exactly one batch — and sent outside it.  Returns
        batches sent."""
        if now is None:
            now = self.clock()
        batches: list[EventBatch] = []
        with self._lock:
            drained = self._buffer.drain()
            by_query: dict[str, list[Event]] = {}
            host = self.host
            for iq, payload, rid, ts in drained:
                # Materialize the Event here, off the application's hot
                # path — log() buffered only (iq, payload, rid, ts).
                by_query.setdefault(iq.spec.query_id, []).append(
                    _rebuild_event(iq.spec.event_type, payload, rid, ts, host)
                )

            # Roll governors first: the previous interval is judged before
            # this flush's bytes are charged to the new one.
            for query_id, gov in list(self._governors.items()):
                reason = gov.roll(now)
                if reason is not None:
                    self._note_quarantine(query_id, reason, now)

            for query_id, installed in list(self._queries.items()):
                events = by_query.pop(query_id, [])
                seen: dict[tuple[str, int], int] = {}
                dropped = 0
                shed = 0
                partials: list[PartialAggregate] = []
                for iq in installed:
                    if iq.seen_by_window:
                        for key, count in iq.seen_by_window.items():
                            seen[key] = seen.get(key, 0) + count
                        iq.seen_by_window = {}
                    dropped += iq.pending_dropped
                    iq.pending_dropped = 0
                    shed += iq.pending_shed
                    iq.pending_shed = 0
                    if iq.partial_groups:
                        # Ship completed windows; the current window keeps
                        # accumulating unless the query span has ended.
                        cutoff = (
                            math.inf
                            if now >= iq.expires_at
                            else int(now // iq.window_seconds)
                        )
                        partials.extend(iq.drain_partials(cutoff))
                quarantined = self._pending_quarantine.pop(query_id, "")
                if (
                    not events
                    and not seen
                    and not dropped
                    and not shed
                    and not partials
                    and not quarantined
                ):
                    continue
                batch = EventBatch(
                    host=self.host,
                    query_id=query_id,
                    events=events,
                    seen_counts=seen,
                    dropped=dropped,
                    sent_at=now,
                    partials=partials,
                    shed=shed,
                    quarantined=quarantined,
                )
                nbytes = batch.wire_size()
                gov = self._governors.get(query_id)
                if gov is not None:
                    gov.charge(0.0, nbytes)
                self.stats.batches_flushed += 1
                self.stats.bytes_shipped += nbytes
                batches.append(batch)
            # Events for queries uninstalled between buffering and draining.
            for query_id, events in by_query.items():
                batch = EventBatch(
                    host=self.host, query_id=query_id, events=events, sent_at=now
                )
                self.stats.batches_flushed += 1
                self.stats.bytes_shipped += batch.wire_size()
                batches.append(batch)
            if self._expire(now):
                self._rebuild_routes()
        for batch in batches:
            self.transport.send(batch)
        return len(batches)

    def _note_quarantine(self, query_id: str, reason: str, now: float) -> None:
        """Governor verdict: record the reason (it rides the next flush for
        this query, exactly once) and expire every host query object so no
        further events are examined.  Caller holds the lock."""
        installed = self._queries.get(query_id)
        if installed is None:
            return
        self._pending_quarantine[query_id] = reason
        self.quarantined[query_id] = reason
        self.stats.queries_quarantined += 1
        for iq in installed:
            iq.expires_at = min(iq.expires_at, now)
        self._rebuild_routes()

    def _expire(self, now: float) -> bool:
        expired = [
            query_id
            for query_id, installed in self._queries.items()
            if all(iq.expires_at <= now for iq in installed)
        ]
        for query_id in expired:
            installed = self._queries.pop(query_id)
            self._governors.pop(query_id, None)
            self._rate_versions.pop(query_id, None)
            for iq in installed:
                per_type = self._by_type.get(iq.spec.event_type, [])
                if iq in per_type:
                    per_type.remove(iq)
                if not per_type:
                    self._by_type.pop(iq.spec.event_type, None)
        return bool(expired)

    @property
    def preagg_state_count(self) -> int:
        """Aggregate group states held for AGGREGATE ON HOSTS queries."""
        return sum(
            iq.partial_state_count
            for installed in self._queries.values()
            for iq in installed
        )

    @property
    def buffered(self) -> int:
        return len(self._buffer)
