"""Query planning: splitting a validated query into query objects.

Paper Section 4: the server "creates a number of query objects tagged
with this unique query identifier.  A query object representing the
selection and projection operators is sent to the hosts involved in the
query ...  Another query object representing the join, group-by and
aggregation operators is sent to ScrubCentral."

The split implemented here:

* WHERE is flattened into AND-conjuncts.  A conjunct whose field
  references all belong to one event type is **pushed down** to the
  host-side query object for that type (selection on the host shrinks
  the data shipped).  Conjuncts spanning event types — which can only be
  evaluated after the equi-join — and constant conjuncts stay in the
  central residual predicate.
* The **projection** for each event type is the set of fields of that
  type needed at ScrubCentral (SELECT list, GROUP BY, residual
  predicate).  System fields (request id, timestamp, host) are always
  retained — they are the bounded metadata that supports equi-joins and
  windowing.
* Defaults are applied here: a default tumbling window and a default
  finite query span (queries must end; paper Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ast import (
    AggregateCall,
    BoolOp,
    Expr,
    FieldRef,
    Query,
    SamplingSpec,
    SelectItem,
    TargetCISpec,
    TargetNode,
    walk_exprs,
)
from .validator import ValidatedQuery

__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_DURATION_SECONDS",
    "HostAggregationSpec",
    "HostQueryObject",
    "CentralQueryObject",
    "QueryPlan",
    "plan_query",
    "unique_aggregates",
]


def unique_aggregates(
    select_items: tuple[SelectItem, ...],
    having: Optional[Expr] = None,
) -> tuple[AggregateCall, ...]:
    """Unique aggregate calls across a SELECT list (and HAVING clause), in
    first-appearance order.  Both the host agent (pre-aggregation) and
    ScrubCentral index partial-aggregate vectors by this order, so it is
    defined once.  HAVING-only aggregates come after the SELECT ones and
    still get a state — the filter needs their results even though no
    output column shows them."""
    uniq: list[AggregateCall] = []
    exprs = [item.expr for item in select_items]
    if having is not None:
        exprs.append(having)
    for expr in exprs:
        for node in walk_exprs(expr):
            if isinstance(node, AggregateCall) and node not in uniq:
                uniq.append(node)
    return tuple(uniq)


@dataclass(frozen=True)
class HostAggregationSpec:
    """What a host pre-aggregates when AGGREGATE ON HOSTS is requested."""

    group_by: tuple[Expr, ...]
    aggregates: tuple[AggregateCall, ...]

#: Default tumbling window when the query does not specify one.
DEFAULT_WINDOW_SECONDS = 10.0
#: Default query span duration ("both have default values", Section 3.2).
DEFAULT_DURATION_SECONDS = 300.0


@dataclass(frozen=True)
class HostQueryObject:
    """Selection + projection + sampling for one event type on one host set.

    This is the *only* query work that runs on application hosts.
    """

    query_id: str
    event_type: str
    predicate: Optional[Expr]  # conjuncts referencing only this event type
    projection: tuple[str, ...]  # root payload fields to retain
    event_sampling_rate: float = 1.0
    # The window length is shipped to hosts so the agent can bin its
    # matched-event counters (M_i) per window — one dict increment per
    # matched event — giving the central estimator exact per-window
    # machine totals for the error bounds of Eqs. 1-3.
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    #: When set, the host aggregates matching events itself and ships
    #: per-window partial aggregates instead of events (opt-in ablation
    #: mode; see DESIGN.md §7).
    aggregation: Optional[HostAggregationSpec] = None


@dataclass(frozen=True)
class CentralQueryObject:
    """Join + group-by + aggregation, executed only at ScrubCentral."""

    query_id: str
    sources: tuple[str, ...]
    select_items: tuple[SelectItem, ...]
    group_by: tuple[Expr, ...]
    residual_predicate: Optional[Expr]
    window_seconds: float
    column_names: tuple[str, ...]
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    #: Sliding step (seconds); None = tumbling windows.
    slide_seconds: Optional[float] = None
    #: Hosts ship partial aggregates instead of events.
    host_aggregated: bool = False
    #: Post-aggregation group filter, applied at window close.
    having: Optional[Expr] = None
    #: Closed-loop accuracy goal; makes the query estimable even at full
    #: rates (exact, zero-width bounds) so the sampling controller sees
    #: variance telemetry from the very first window.
    target_ci: Optional[TargetCISpec] = None

    @property
    def is_join(self) -> bool:
        return len(self.sources) > 1


@dataclass(frozen=True)
class QueryPlan:
    """Everything the server needs to install and run one query."""

    query_id: str
    query: Query
    host_objects: tuple[HostQueryObject, ...]
    central_object: CentralQueryObject
    target: TargetNode
    host_sampling_rate: float
    start: Optional[float]  # None = activate immediately
    duration: float

    def host_object_for(self, event_type: str) -> HostQueryObject:
        for obj in self.host_objects:
            if obj.event_type == event_type:
                return obj
        raise KeyError(event_type)


def plan_query(validated: ValidatedQuery, query_id: str) -> QueryPlan:
    """Split *validated* into host and central query objects."""
    query = validated.query
    host_conjuncts: dict[str, list[Expr]] = {s: [] for s in query.sources}
    central_conjuncts: list[Expr] = []

    for conjunct in _conjuncts(query.where):
        owners = _referenced_types(conjunct)
        if len(owners) == 1:
            host_conjuncts[next(iter(owners))].append(conjunct)
        else:
            central_conjuncts.append(conjunct)

    projections = _projections(query, central_conjuncts)
    window_seconds = query.window if query.window is not None else DEFAULT_WINDOW_SECONDS

    aggregation = None
    if query.host_aggregate:
        aggregation = HostAggregationSpec(
            group_by=query.group_by,
            aggregates=unique_aggregates(query.select_items, query.having),
        )

    host_objects = tuple(
        HostQueryObject(
            query_id=query_id,
            event_type=source,
            predicate=_conjoin(host_conjuncts[source]),
            projection=projections[source],
            event_sampling_rate=query.sampling.event_rate,
            window_seconds=window_seconds,
            aggregation=aggregation,
        )
        for source in query.sources
    )

    central_object = CentralQueryObject(
        query_id=query_id,
        sources=query.sources,
        select_items=query.select_items,
        group_by=query.group_by,
        residual_predicate=_conjoin(central_conjuncts),
        window_seconds=window_seconds,
        column_names=validated.column_names,
        sampling=query.sampling,
        slide_seconds=query.slide,
        host_aggregated=query.host_aggregate,
        having=query.having,
        target_ci=query.target_ci,
    )

    duration = (
        query.span.duration if query.span.duration is not None else DEFAULT_DURATION_SECONDS
    )
    return QueryPlan(
        query_id=query_id,
        query=query,
        host_objects=host_objects,
        central_object=central_object,
        target=query.target,
        host_sampling_rate=query.sampling.host_rate,
        start=query.span.start,
        duration=duration,
    )


def _conjuncts(predicate: Optional[Expr]) -> list[Expr]:
    """Flatten nested top-level ANDs into a conjunct list."""
    if predicate is None:
        return []
    if isinstance(predicate, BoolOp) and predicate.op == "AND":
        out: list[Expr] = []
        for term in predicate.terms:
            out.extend(_conjuncts(term))
        return out
    return [predicate]


def _conjoin(conjuncts: list[Expr]) -> Optional[Expr]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolOp("AND", tuple(conjuncts))


def _referenced_types(expr: Expr) -> set[str]:
    return {
        node.event_type
        for node in walk_exprs(expr)
        if isinstance(node, FieldRef) and node.event_type is not None
    }


def _projections(
    query: Query, central_conjuncts: list[Expr]
) -> dict[str, tuple[str, ...]]:
    """Per-source set of root payload fields ScrubCentral will need."""
    needed: dict[str, set[str]] = {s: set() for s in query.sources}

    def note(expr: Expr) -> None:
        for node in walk_exprs(expr):
            if isinstance(node, FieldRef) and node.event_type in needed:
                root = node.field.split(".", 1)[0]
                needed[node.event_type].add(root)

    for item in query.select_items:
        note(item.expr)
    for group in query.group_by:
        note(group)
    for conjunct in central_conjuncts:
        note(conjunct)
    if query.having is not None:
        note(query.having)

    # System fields (request_id/timestamp/host) are kept implicitly by
    # Event.project; exclude them from the payload projection list.
    from ..events import SYSTEM_FIELDS

    return {
        source: tuple(sorted(fields - set(SYSTEM_FIELDS)))
        for source, fields in needed.items()
    }
