"""Abstract syntax tree for the Scrub query language.

Nodes are frozen dataclasses; :func:`unparse` renders any node back to
query text (used in error messages, the query-object wire format, and
round-trip tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

__all__ = [
    "Expr",
    "Literal",
    "FieldRef",
    "BinaryOp",
    "UnaryOp",
    "Comparison",
    "InList",
    "Between",
    "IsNull",
    "BoolOp",
    "AggregateCall",
    "SelectItem",
    "TargetNode",
    "TargetAll",
    "ServiceIn",
    "ServersIn",
    "ServerEq",
    "DatacenterEq",
    "TargetAnd",
    "SamplingSpec",
    "SpanSpec",
    "TargetCISpec",
    "Query",
    "AGGREGATE_FUNCS",
    "child_exprs",
    "unparse",
    "walk_exprs",
]

AGGREGATE_FUNCS = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "COUNT_DISTINCT", "TOP", "QUANTILE"}
)


# -- expressions ---------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Any  # int | float | str | bool | None


@dataclass(frozen=True)
class FieldRef:
    """A (possibly qualified) field reference: ``bid.user_id`` or ``user_id``.

    ``event_type`` is None for unqualified references; the validator
    resolves them to a unique source event type.  ``field`` may itself be
    a dotted path into a nested object field.
    """

    event_type: Optional[str]
    field: str

    @property
    def qualified(self) -> str:
        return f"{self.event_type}.{self.field}" if self.event_type else self.field


@dataclass(frozen=True)
class BinaryOp:
    op: str  # + - * / %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # '-' or 'NOT'
    operand: "Expr"


@dataclass(frozen=True)
class Comparison:
    op: str  # = != < <= > >= LIKE
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class InList:
    expr: "Expr"
    values: tuple[Literal, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between:
    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    expr: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class BoolOp:
    op: str  # AND | OR
    terms: tuple["Expr", ...]


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate function application.

    ``arg`` is None only for ``COUNT(*)``.  ``k`` is set only for
    ``TOP(k, expr)``; ``q`` only for ``QUANTILE(expr, q)``.
    """

    func: str
    arg: Optional["Expr"] = None
    k: Optional[int] = None
    q: Optional[float] = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate: {self.func}")
        if self.func == "TOP" and (self.k is None or self.k <= 0):
            raise ValueError("TOP requires a positive k")
        if self.func == "QUANTILE":
            if self.arg is None:
                raise ValueError("QUANTILE requires an argument expression")
            if self.q is None or not 0.0 <= self.q <= 1.0:
                raise ValueError("QUANTILE requires q in [0, 1]")


Expr = Union[
    Literal, FieldRef, BinaryOp, UnaryOp, Comparison, InList, Between, IsNull,
    BoolOp, AggregateCall,
]


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


# -- targets (@[...]) -----------------------------------------------------------


@dataclass(frozen=True)
class TargetAll:
    pass


@dataclass(frozen=True)
class ServiceIn:
    services: tuple[str, ...]


@dataclass(frozen=True)
class ServersIn:
    hosts: tuple[str, ...]


@dataclass(frozen=True)
class ServerEq:
    host: str


@dataclass(frozen=True)
class DatacenterEq:
    datacenter: str


@dataclass(frozen=True)
class TargetAnd:
    terms: tuple["TargetNode", ...]


TargetNode = Union[TargetAll, ServiceIn, ServersIn, ServerEq, DatacenterEq, TargetAnd]


# -- query-level specs -----------------------------------------------------------


@dataclass(frozen=True)
class SamplingSpec:
    """Two-level sampling rates in (0, 1]; 1.0 means no sampling."""

    host_rate: float = 1.0
    event_rate: float = 1.0

    def __post_init__(self) -> None:
        for label, rate in (("host", self.host_rate), ("event", self.event_rate)):
            if not 0.0 < rate <= 1.0:
                raise ValueError(f"{label} sampling rate must be in (0, 1], got {rate}")

    @property
    def is_sampled(self) -> bool:
        return self.host_rate < 1.0 or self.event_rate < 1.0


@dataclass(frozen=True)
class TargetCISpec:
    """A ``TARGET CI x%`` accuracy goal: the user asks the system to keep
    each window's 95% error bound within ``relative_error`` of the
    estimate, and lets the sampling controller pick the cheapest
    (host, event) rates that deliver it (ROADMAP: closed-loop
    accuracy-aware sampling)."""

    relative_error: float
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.relative_error < 1.0:
            raise ValueError(
                f"TARGET CI must be in (0%, 100%), got {self.relative_error * 100:g}%"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"TARGET CI confidence must be in (0, 1), got {self.confidence}"
            )


@dataclass(frozen=True)
class SpanSpec:
    """Query span: start time (None = now) and finite duration in seconds.

    The finite timespan guards against users forgetting to end queries
    (paper Section 3.2).
    """

    start: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration is not None and self.duration <= 0:
            raise ValueError("query duration must be positive")


@dataclass(frozen=True)
class Query:
    select_items: tuple[SelectItem, ...]
    sources: tuple[str, ...]
    where: Optional[Expr] = None
    target: TargetNode = field(default_factory=TargetAll)
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    #: Closed-loop accuracy goal (``TARGET CI x%``); None = static rates.
    target_ci: Optional[TargetCISpec] = None
    span: SpanSpec = field(default_factory=SpanSpec)
    window: Optional[float] = None  # window length, seconds
    #: Sliding step in seconds; None = tumbling (the paper's default —
    #: sliding windows are its suggested extension).
    slide: Optional[float] = None
    #: Pre-aggregate on the hosts and ship partial aggregates instead of
    #: events (an explicitly opt-in deviation from the paper's central-
    #: execution default, provided for the DESIGN.md ablation).
    host_aggregate: bool = False
    group_by: tuple[Expr, ...] = ()
    #: Post-aggregation group filter (SQL HAVING); evaluated at window
    #: close over group keys and aggregate results.
    having: Optional[Expr] = None

    @property
    def is_join(self) -> bool:
        return len(self.sources) > 1

    def aggregates(self) -> list[AggregateCall]:
        """All aggregate calls in the SELECT list and HAVING, in order."""
        found: list[AggregateCall] = []
        exprs = [item.expr for item in self.select_items]
        if self.having is not None:
            exprs.append(self.having)
        for expr in exprs:
            for node in walk_exprs(expr):
                if isinstance(node, AggregateCall):
                    found.append(node)
        return found

    @property
    def is_aggregating(self) -> bool:
        return bool(self.group_by) or bool(self.aggregates())


# -- traversal -----------------------------------------------------------------


def child_exprs(node: Expr) -> tuple[Expr, ...]:
    """The expressions directly beneath *node*, in evaluation order."""
    if isinstance(node, (BinaryOp, Comparison)):
        return (node.left, node.right)
    if isinstance(node, UnaryOp):
        return (node.operand,)
    if isinstance(node, BoolOp):
        return node.terms
    if isinstance(node, InList):
        return (node.expr, *node.values)
    if isinstance(node, Between):
        return (node.expr, node.low, node.high)
    if isinstance(node, IsNull):
        return (node.expr,)
    if isinstance(node, AggregateCall) and node.arg is not None:
        return (node.arg,)
    return ()


def walk_exprs(node: Expr) -> Iterator[Expr]:
    """Yield *node* and every expression beneath it, pre-order."""
    yield node
    for child in child_exprs(node):
        yield from walk_exprs(child)


# -- unparser -----------------------------------------------------------------


def _fmt_duration(seconds: float) -> str:
    for unit, factor in (("d", 86400.0), ("h", 3600.0), ("m", 60.0), ("s", 1.0)):
        if seconds >= factor and (seconds / factor) == int(seconds / factor):
            return f"{int(seconds / factor)}{unit}"
    return f"{int(round(seconds * 1000))}ms"


def _fmt_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def unparse(node: Any) -> str:
    """Render an AST node (expression, target, or whole query) as text."""
    if isinstance(node, Query):
        return _unparse_query(node)
    if isinstance(node, Literal):
        return _fmt_literal(node.value)
    if isinstance(node, FieldRef):
        return node.qualified
    if isinstance(node, BinaryOp):
        return f"({unparse(node.left)} {node.op} {unparse(node.right)})"
    if isinstance(node, UnaryOp):
        if node.op == "NOT":
            return f"NOT ({unparse(node.operand)})"
        return f"(-{unparse(node.operand)})"
    if isinstance(node, Comparison):
        return f"{unparse(node.left)} {node.op} {unparse(node.right)}"
    if isinstance(node, InList):
        values = ", ".join(unparse(v) for v in node.values)
        negation = "NOT " if node.negated else ""
        return f"{unparse(node.expr)} {negation}IN ({values})"
    if isinstance(node, Between):
        negation = "NOT " if node.negated else ""
        return (
            f"{unparse(node.expr)} {negation}BETWEEN "
            f"{unparse(node.low)} AND {unparse(node.high)}"
        )
    if isinstance(node, IsNull):
        tail = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{unparse(node.expr)} {tail}"
    if isinstance(node, BoolOp):
        joined = f" {node.op} ".join(unparse(t) for t in node.terms)
        return f"({joined})"
    if isinstance(node, AggregateCall):
        if node.func == "COUNT" and node.arg is None:
            return "COUNT(*)"
        if node.func == "TOP":
            return f"TOP({node.k}, {unparse(node.arg)})"
        if node.func == "QUANTILE":
            return f"QUANTILE({unparse(node.arg)}, {node.q:g})"
        return f"{node.func}({unparse(node.arg)})"
    if isinstance(node, SelectItem):
        text = unparse(node.expr)
        return f"{text} AS {node.alias}" if node.alias else text
    if isinstance(node, TargetAll):
        return "ALL"
    if isinstance(node, ServiceIn):
        return "Service in " + ", ".join(node.services)
    if isinstance(node, ServersIn):
        return "Servers in (" + ", ".join(node.hosts) + ")"
    if isinstance(node, ServerEq):
        return f"Server = {node.host}"
    if isinstance(node, DatacenterEq):
        return f"Datacenter = {node.datacenter}"
    if isinstance(node, TargetAnd):
        return " and ".join(unparse(t) for t in node.terms)
    raise TypeError(f"cannot unparse {type(node).__name__}")


def _unparse_query(q: Query) -> str:
    parts = [
        "SELECT " + ", ".join(unparse(item) for item in q.select_items),
        "FROM " + ", ".join(q.sources),
    ]
    if q.where is not None:
        parts.append("WHERE " + unparse(q.where))
    if not isinstance(q.target, TargetAll):
        parts.append(f"@[{unparse(q.target)}]")
    if q.sampling.host_rate < 1.0:
        parts.append(f"SAMPLE HOSTS {q.sampling.host_rate * 100:g}%")
    if q.sampling.event_rate < 1.0:
        parts.append(f"SAMPLE EVENTS {q.sampling.event_rate * 100:g}%")
    if q.target_ci is not None:
        parts.append(f"TARGET CI {q.target_ci.relative_error * 100:g}%")
    if q.span.start is not None:
        parts.append(f"START {q.span.start:g}")
    if q.span.duration is not None:
        parts.append(f"DURATION {_fmt_duration(q.span.duration)}")
    if q.window is not None:
        window_text = f"WINDOW {_fmt_duration(q.window)}"
        if q.slide is not None:
            window_text += f" SLIDE {_fmt_duration(q.slide)}"
        parts.append(window_text)
    if q.host_aggregate:
        parts.append("AGGREGATE ON HOSTS")
    if q.group_by:
        parts.append("GROUP BY " + ", ".join(unparse(g) for g in q.group_by))
    if q.having is not None:
        parts.append("HAVING " + unparse(q.having))
    return "\n".join(parts) + ";"
