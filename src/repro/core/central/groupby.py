"""Group-by and select-list evaluation at ScrubCentral.

For each window the engine keeps a :class:`WindowGroups`: the per-group
aggregate states (for aggregating queries) or the evaluated output rows
(for plain selections).  At window close the group states are rendered
into result rows by substituting aggregate results and group-key values
into the SELECT expressions — so ``1000 * AVG(impression.cost)`` (paper
Fig. 13) evaluates with AVG computed first, arithmetic after.

Group-key and aggregate matching is by structural AST equality: a
SELECT item equal to a GROUP BY expression reads the group key, and
identical aggregate calls share one state.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional

from ..events import HOST, Event
from ..events.encoding import fixed_row_slots
from ..query.ast import (
    AggregateCall,
    Between,
    BinaryOp,
    BoolOp,
    Comparison,
    Expr,
    FieldRef,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    normalize_expr,
    unparse,
    walk_exprs,
)
from ..query.compile import FieldGetter, compile_expr, like_to_regex
from ..query.errors import ScrubExecutionError
from ..query.planner import CentralQueryObject, unique_aggregates
from .aggregates import AggregateState, make_state
from .results import ResultRow

__all__ = [
    "GroupByProcessor",
    "WindowGroups",
    "make_field_getter",
    "make_row_getter",
    "compile_cached",
]

#: Sentinel passed to COUNT(*) states: always non-NULL, so every row counts.
_COUNT_STAR = object()


def make_field_getter(sources: tuple[str, ...]) -> FieldGetter:
    """Field access over central rows.

    Single-source queries pass events directly (no per-event dict); join
    queries pass ``{event_type: Event}`` rows.
    """
    if len(sources) == 1:
        def single(_event_type: Optional[str], field: str) -> Callable[[Event], Any]:
            return lambda event: event.get(field)
        return single

    def joined(event_type: Optional[str], field: str) -> Callable[[dict[str, Event]], Any]:
        if event_type is None:  # pragma: no cover - validator resolves all refs
            raise ScrubExecutionError(f"unresolved field reference {field!r} in join")
        return lambda row: row[event_type].get(field)

    return joined


def make_row_getter(names: tuple[str, ...]) -> FieldGetter:
    """Field access over wire rows — the tuples of
    :func:`~repro.core.events.encoding.decode_fixed_rows` — for a
    single-source query: a slot lookup in C, NULL for an absent field."""
    slots = fixed_row_slots(names)

    def getter(_event_type: Optional[str], field: str) -> Callable[[tuple], Any]:
        slot = slots.get(field)
        return (lambda row: None) if slot is None else itemgetter(slot)

    return getter


@lru_cache(maxsize=512)
def _compile_normalized(expr: Expr, sources: tuple[str, ...]) -> Callable[[Any], Any]:
    return compile_expr(expr, make_field_getter(sources))


def compile_cached(expr: Expr, sources: tuple[str, ...]) -> Callable[[Any], Any]:
    """Compile *expr* for rows of *sources*, caching by normalized AST.

    Re-installed queries (reconnect re-installs, shard workers compiling
    the same spec, repeated shell sessions) hit the cache instead of
    re-walking the AST; normalization makes structurally different but
    semantically identical predicates share one closure.  Compiled
    closures are stateless, so sharing across queries is safe.
    """
    try:
        return _compile_normalized(normalize_expr(expr), sources)
    except TypeError:
        # An unhashable literal (not produced by the parser, but the AST
        # is public API) — compile without caching.
        return compile_expr(expr, make_field_getter(sources))


class Accessors(NamedTuple):
    """A query's row-reading closures, compiled for one row
    representation (Events and joined rows, or wire-row tuples)."""

    residual: Optional[Callable[[Any], bool]]  # None: every row passes
    group_fns: list[Callable[[Any], Any]]
    agg_arg_fns: list[Callable[[Any], Any]]
    select_fns: list[Callable[[Any], Any]]  # raw selections only


class GroupByProcessor:
    """Compiled per-query machinery shared by all of its windows."""

    def __init__(self, spec: CentralQueryObject) -> None:
        self.spec = spec
        sources = spec.sources
        self.group_exprs: tuple[Expr, ...] = spec.group_by

        # Unique aggregate calls across SELECT and HAVING (structural
        # dedup); the shared helper fixes the order host partials are
        # indexed by.  HAVING-only aggregates get a state like any other.
        self.agg_calls: tuple[AggregateCall, ...] = unique_aggregates(
            spec.select_items, spec.having
        )
        #: Post-aggregation group filter; evaluated per group at finalize.
        self.having: Optional[Expr] = spec.having
        #: COUNT(*) never inspects its rows — the batched path can bump
        #: the counter by the group size instead of feeding sentinels.
        self._count_star = [agg.arg is None and agg.func == "COUNT" for agg in self.agg_calls]

        self.is_aggregating = bool(self.agg_calls) or bool(spec.group_by)
        self.accessors = self.compile_accessors(lambda e: compile_cached(e, sources))
        #: Wire rows carry no per-row host (docs/SCALING.md §"Fixed-layout
        #: row ingest"); a query that reads it stays on the Event path.
        exprs = [*spec.group_by, *(item.expr for item in spec.select_items)]
        exprs += [e for e in (spec.residual_predicate, spec.having) if e is not None]
        self.reads_host = any(
            isinstance(n, FieldRef) and n.field == HOST for e in exprs for n in walk_exprs(e)
        )

    def compile_accessors(self, compile_fn: Callable[[Expr], Callable]) -> Accessors:
        """Compile the residual / group-by / aggregate-argument / select
        closures with *compile_fn*, which fixes the row representation."""
        spec = self.spec
        residual = None
        if spec.residual_predicate is not None:
            inner = compile_fn(spec.residual_predicate)
            residual = lambda row: inner(row) is True
        return Accessors(
            residual,
            [compile_fn(g) for g in spec.group_by],
            [
                (lambda _row: _COUNT_STAR) if agg.arg is None else compile_fn(agg.arg)
                for agg in self.agg_calls
            ],
            [] if self.is_aggregating else [compile_fn(i.expr) for i in spec.select_items],
        )

    def make_window_state(self) -> "WindowGroups":
        return WindowGroups(self)


class WindowGroups:
    """Mutable per-window state: groups & aggregate states, or raw rows."""

    def __init__(self, processor: GroupByProcessor) -> None:
        self._p = processor
        self.groups: dict[tuple[Any, ...], list[AggregateState]] = {}
        self.raw_rows: list[ResultRow] = []
        self.rows_processed = 0

    def process(self, row: Any) -> bool:
        """Feed one central row (Event or JoinedRow); returns False when
        the residual predicate rejected it."""
        p = self._p
        residual, group_fns, agg_arg_fns, select_fns = p.accessors
        if residual is not None and not residual(row):
            return False
        self.rows_processed += 1
        if not p.is_aggregating:
            self.raw_rows.append(
                ResultRow(tuple(fn(row) for fn in select_fns))
            )
            return True
        key = tuple(_group_key_part(fn(row)) for fn in group_fns)
        states = self.groups.get(key)
        if states is None:
            states = [make_state(agg) for agg in p.agg_calls]
            self.groups[key] = states
        for state, arg_fn in zip(states, agg_arg_fns):
            state.update(arg_fn(row))
        return True

    def process_batch(self, rows: list[Any], accessors: Optional[Accessors] = None) -> list[Any]:
        """Feed many central rows at once; returns the accepted rows.

        Semantically identical to calling :meth:`process` per row (same
        update order, so even order-sensitive states like Space-Saving
        end up byte-identical), but pays the residual predicate, group
        segmentation, and aggregate dispatch per *batch* instead of per
        event.  The returned list (rows that passed the residual) feeds
        the engine's per-host estimator accumulation.  *accessors* are
        the closures that read *rows*: the processor's own for Events,
        an ``itemgetter`` set from the same compiler for wire rows.
        """
        p = self._p
        residual, group_fns, agg_arg_fns, select_fns = accessors or p.accessors
        if residual is not None:
            rows = [row for row in rows if residual(row)]
        if not rows:
            return rows
        self.rows_processed += len(rows)
        if not p.is_aggregating:
            self.raw_rows.extend(
                ResultRow(tuple(fn(row) for fn in select_fns)) for row in rows
            )
            return rows

        if not group_fns:
            segments = {(): rows}
        elif len(group_fns) == 1:
            fn = group_fns[0]
            segments = {}
            for row in rows:
                segments.setdefault((_group_key_part(fn(row)),), []).append(row)
        else:
            segments = {}
            for row in rows:
                key = tuple(_group_key_part(fn(row)) for fn in group_fns)
                segments.setdefault(key, []).append(row)

        for key, members in segments.items():
            states = self.groups.get(key)
            if states is None:
                states = [make_state(agg) for agg in p.agg_calls]
                self.groups[key] = states
            for state, arg_fn, star in zip(states, agg_arg_fns, p._count_star):
                if star:
                    state.count += len(members)  # COUNT(*): no per-row work
                else:
                    state.update_many(list(map(arg_fn, members)))
        return rows

    def merge(self, other: "WindowGroups") -> None:
        """Fold another window's state for the *same* query into this one.

        The shard-merge operator: commutative and associative for every
        aggregate except SUM ordering (floats) and saturated Space-Saving
        summaries — see docs/SCALING.md for the exactness contract.
        *other* is consumed; its states may be adopted rather than copied.
        """
        if not self._p.is_aggregating:
            self.rows_processed += other.rows_processed
            self.raw_rows.extend(other.raw_rows)
            return
        self.merge_groups(other.groups, other.rows_processed)

    def merge_groups(
        self,
        groups: dict[tuple[Any, ...], list[AggregateState]],
        rows_processed: int,
    ) -> None:
        """Merge a bare groups map (a shard's partial) into this window."""
        self.rows_processed += rows_processed
        mine = self.groups
        for key, other_states in groups.items():
            states = mine.get(key)
            if states is None:
                mine[key] = other_states
            else:
                for state, other in zip(states, other_states):
                    state.merge(other)

    def finalize(
        self,
        scale_factor: float = 1.0,
        agg_overrides: Optional[dict[AggregateCall, Any]] = None,
    ) -> list[ResultRow]:
        """Render this window's output rows, applying the sampling scale
        factor to scalable aggregates (COUNT/SUM/TOP-K counts).

        *agg_overrides* lets the engine substitute better estimates — the
        multi-stage sampling estimator's values — for specific aggregate
        calls (global aggregates under sampling).
        """
        p = self._p
        if not p.is_aggregating:
            return self.raw_rows
        rows: list[ResultRow] = []
        for key, states in sorted(self.groups.items(), key=_sort_key):
            group_values = dict(zip(p.group_exprs, key))
            agg_values = {
                agg: state.scaled_result(scale_factor)
                for agg, state in zip(p.agg_calls, states)
            }
            if agg_overrides:
                agg_values.update(agg_overrides)
            if p.having is not None:
                # SQL HAVING: keep the group only when the predicate is
                # definitely true (3VL, same rule as WHERE).  Evaluated
                # over the scaled/overridden values the row would show.
                if _eval_output(p.having, group_values, agg_values) is not True:
                    continue
            values = tuple(
                _eval_output(item.expr, group_values, agg_values)
                for item in p.spec.select_items
            )
            rows.append(ResultRow(values))
        return rows


def _group_key_part(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_group_key_part(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _group_key_part(v)) for k, v in value.items()))
    return value


def _sort_key(item: tuple[tuple[Any, ...], Any]) -> tuple:
    """Deterministic group ordering; None sorts first, mixed types by repr."""
    key = item[0]
    return tuple(
        (0, "") if part is None else (1, part) if isinstance(part, (int, float, bool)) else (2, str(part))
        for part in key
    )


def _eval_output(
    expr: Expr,
    group_values: dict[Expr, Any],
    agg_values: dict[AggregateCall, Any],
) -> Any:
    """Evaluate a SELECT or HAVING expression after aggregation.

    Group-by expressions and aggregate calls are leaves here; everything
    else is literals, arithmetic, and (for HAVING) predicates over them
    — with the same three-valued-logic semantics the row-level compiler
    gives WHERE (``compile.py``), so ``HAVING COUNT(*) > n`` filters
    exactly like the equivalent post-hoc filter over the output rows.
    """
    if expr in group_values:
        return group_values[expr]
    if isinstance(expr, AggregateCall):
        return agg_values[expr]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinaryOp):
        left = _eval_output(expr.left, group_values, agg_values)
        right = _eval_output(expr.right, group_values, agg_values)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right if right != 0 else None
        if expr.op == "%":
            return left % right if right != 0 else None
        raise ScrubExecutionError(f"bad arithmetic op {expr.op!r}")
    if isinstance(expr, UnaryOp):
        value = _eval_output(expr.operand, group_values, agg_values)
        if value is None:
            return None
        return -value if expr.op == "-" else (not value)
    if isinstance(expr, Comparison):
        left = _eval_output(expr.left, group_values, agg_values)
        right = _eval_output(expr.right, group_values, agg_values)
        if left is None or right is None:
            return None
        try:
            if expr.op == "LIKE":
                return like_to_regex(right).fullmatch(str(left)) is not None
            return _COMPARATORS[expr.op](left, right)
        except TypeError:
            return None
    if isinstance(expr, InList):
        value = _eval_output(expr.expr, group_values, agg_values)
        if value is None:
            return None
        members = [v.value for v in expr.values]
        try:
            hit = value in [m for m in members if m is not None]
        except TypeError:
            return None
        if not hit and None in members:
            return None  # SQL: x IN (..., NULL) is UNKNOWN when no match
        return (not hit) if expr.negated else hit
    if isinstance(expr, Between):
        value = _eval_output(expr.expr, group_values, agg_values)
        low = _eval_output(expr.low, group_values, agg_values)
        high = _eval_output(expr.high, group_values, agg_values)
        if value is None or low is None or high is None:
            return None
        try:
            hit = low <= value <= high
        except TypeError:
            return None
        return (not hit) if expr.negated else hit
    if isinstance(expr, IsNull):
        value = _eval_output(expr.expr, group_values, agg_values)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, BoolOp):
        unknown = False
        if expr.op == "AND":
            for term in expr.terms:
                result = _eval_output(term, group_values, agg_values)
                if result is False:
                    return False
                if result is None:
                    unknown = True
            return None if unknown else True
        for term in expr.terms:
            result = _eval_output(term, group_values, agg_values)
            if result is True:
                return True
            if result is None:
                unknown = True
        return None if unknown else False
    raise ScrubExecutionError(
        f"cannot evaluate {unparse(expr)} after aggregation; "
        "it is neither a group key nor an aggregate"
    )


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
