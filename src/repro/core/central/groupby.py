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

from typing import Any, Callable, NamedTuple, Optional

from ..events import HOST
from ..query.ast import AggregateCall, FieldRef, walk_exprs
from ..query.codegen import (
    RowShape,
    compile_expr,
    compile_predicate,
    compile_select,
    event_rows,
    output_rows,
)
from ..query.planner import CentralQueryObject, unique_aggregates
from .aggregates import AggregateState, make_state
from .results import ResultRow

__all__ = ["GroupByProcessor", "WindowGroups"]

#: Sentinel passed to COUNT(*) states: always non-NULL, so every row counts.
_COUNT_STAR = object()


class Accessors(NamedTuple):
    """A query's row-reading functions, compiled for one row shape
    (Events and joined rows, or wire-row tuples)."""

    residual: Optional[Callable[[Any], bool]]  # None: every row passes
    group_fns: list[Callable[[Any], Any]]
    agg_arg_fns: list[Callable[[Any], Any]]
    select_fns: list[Callable[[Any], Any]]  # raw selections only


class GroupByProcessor:
    """Compiled per-query machinery shared by all of its windows."""

    def __init__(self, spec: CentralQueryObject) -> None:
        self.spec = spec

        # Unique aggregate calls across SELECT and HAVING (structural
        # dedup); the shared helper fixes the order host partials are
        # indexed by.  HAVING-only aggregates get a state like any other.
        self.agg_calls: tuple[AggregateCall, ...] = unique_aggregates(
            spec.select_items, spec.having
        )
        #: COUNT(*) never inspects its rows — the batched path can bump
        #: the counter by the group size instead of feeding sentinels.
        self._count_star = [agg.arg is None and agg.func == "COUNT" for agg in self.agg_calls]

        self.is_aggregating = bool(self.agg_calls) or bool(spec.group_by)
        self.accessors = self.compile_accessors(event_rows(spec.sources))
        #: ``(key, aggs) -> SELECT tuple``, or None for a group HAVING
        #: rejects: SQL keeps a group only when the predicate is
        #: definitely true (3VL, same rule as WHERE), evaluated over the
        #: scaled/overridden values the row would show.
        self.output = (
            compile_select(
                [item.expr for item in spec.select_items],
                output_rows(spec.group_by, self.agg_calls),
                where=spec.having,
            )
            if self.is_aggregating
            else None
        )
        #: Wire rows carry no per-row host (docs/SCALING.md §"Fixed-layout
        #: row ingest"); a query that reads it stays on the Event path.
        exprs = [*spec.group_by, *(item.expr for item in spec.select_items)]
        exprs += [e for e in (spec.residual_predicate, spec.having) if e is not None]
        self.reads_host = any(
            isinstance(n, FieldRef) and n.field == HOST for e in exprs for n in walk_exprs(e)
        )

    def compile_accessors(self, shape: RowShape) -> Accessors:
        """Compile the residual / group-by / aggregate-argument / select
        functions for rows of *shape*."""
        spec = self.spec
        return Accessors(
            None
            if spec.residual_predicate is None
            else compile_predicate(spec.residual_predicate, shape),
            [compile_expr(g, shape) for g in spec.group_by],
            [
                (lambda _row: _COUNT_STAR) if agg.arg is None else compile_expr(agg.arg, shape)
                for agg in self.agg_calls
            ],
            []
            if self.is_aggregating
            else [compile_expr(i.expr, shape) for i in spec.select_items],
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

    def process_batch(self, rows: list[Any], accessors: Optional[Accessors] = None) -> list[Any]:
        """Feed central rows (Events, joined rows or wire rows); returns
        the rows the residual predicate accepted.

        Semantically identical to feeding one row at a time (same update
        order per state, so even order-sensitive states like Space-Saving
        end up byte-identical — ``tests/core/reference_engine.py`` is
        that per-row loop), but pays the residual predicate, group
        segmentation, and aggregate dispatch per *batch* instead of per
        event.  The returned list feeds the engine's per-host estimator
        accumulation.  *accessors* are the functions that read *rows*:
        the processor's own for Events, an ``itemgetter`` set from the
        same compiler for wire rows.
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
                part = fn(row)
                if isinstance(part, _NESTED):
                    part = _group_key_part(part)
                segments.setdefault((part,), []).append(row)
        else:
            segments = {}
            for row in rows:
                key = tuple([fn(row) for fn in group_fns])
                for part in key:
                    if isinstance(part, _NESTED):
                        key = tuple(map(_group_key_part, key))
                        break
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
        overrides = [
            (i, agg_overrides[agg])
            for i, agg in enumerate(p.agg_calls)
            if agg_overrides and agg in agg_overrides
        ]
        rows: list[ResultRow] = []
        for key, states in sorted(self.groups.items(), key=_sort_key):
            aggs = [state.scaled_result(scale_factor) for state in states]
            for i, value in overrides:
                aggs[i] = value
            values = p.output(key, aggs)
            if values is not None:
                rows.append(ResultRow(values))
        return rows


#: Group-key values that :func:`_group_key_part` folds into tuples.
_NESTED = (list, dict)


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
