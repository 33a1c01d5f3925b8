"""The expression compiler: generated, shape-specialized Python.

Everything that evaluates the query language runs code emitted here —
host selection and pre-aggregation, ScrubCentral's residual / group-by /
aggregate-argument / select accessors, the post-aggregation HAVING +
SELECT step and the batch baseline.  An expression is translated once,
at install, into straight-line Python source specialized to the *row
shape* it will read (:class:`RowShape`):

* :func:`payload_rows` — ``(data, rid, now)``, the raw payload dict and
  system fields of a ``log()`` call before any ``Event`` exists;
* :func:`event_rows` — anything with ``.get(field)`` (an ``Event``, a
  plain dict) for one source, ``{event_type: Event}`` rows for a join;
* :func:`wire_rows` — the tuples of ``decode_fixed_rows``: ``row[slot]``,
  a literal ``None`` for a field the layout lacks;
* :func:`output_rows` — ``(key, aggs)`` after aggregation: GROUP BY
  expressions and aggregate calls are the leaves.

Evaluating a predicate then costs one Python call, not one per AST
node — the per-event overhead the paper's minimal-impact goal cannot
afford on application hosts:

* field access is resolved once (payload ``dict.get``, system-field
  parameters, dotted-path fallback only for dotted names) and **shared**
  across all queries armed on the same event type;
* constants are inlined into the source; LIKE regexes and IN-sets are
  hoisted into the function's environment;
* the per-query sampling decision (the splitmix64 hash of
  ``sampling.EventSampler``) is unrolled inline, sharing the
  request-id pre-mix across queries;
* SQL three-valued logic is preserved **exactly**: the closure compiler
  kept in the test tree (``tests/core/closure_oracle.py``) is the
  semantic oracle, and the Hypothesis differential suite pins
  interpreter, closures and generated code to identical outcomes for
  every row shape, including which inputs raise ``TypeError``.

The host gets two whole-path functions per event type.
:func:`build_entry` generates the **entire** armed ``log()`` call for an
ungoverned, non-aggregating group — a match is carried all the way
through seen/window accounting, projection (or the shared full-payload
copy) and the bounded-buffer append with exact shipped/dropped counters;
no interpreter loop, no intermediate objects on the reject path.
:func:`build_processor` generates ``process(data, rid, now)`` for a
group the agent must walk itself (a governor or a host aggregation on
that event type): it returns two mask bits per entry — bit ``2i``
selection matched, bit ``2i+1`` sampler keep.

The emitter is total over what the parser admits: an AND/OR chain costs
one indentation level per *nesting* level whatever its width, and the
parser bounds nesting (``parser.MAX_EXPR_DEPTH``).  An operator only a
hand-built AST can carry raises :class:`CodegenUnsupported` out of
``install`` / ``register`` — the query is refused, never re-routed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from ..events.encoding import fixed_row_slots
from ..events.schema import HOST, REQUEST_ID, TIMESTAMP
from .ast import (
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
    child_exprs,
    unparse,
)
from .errors import ScrubExecutionError

__all__ = [
    "ArmedQuery",
    "CodegenUnsupported",
    "RowShape",
    "build_entry",
    "build_processor",
    "compile_expr",
    "compile_predicate",
    "compile_select",
    "event_rows",
    "like_to_regex",
    "output_rows",
    "payload_rows",
    "wire_rows",
]

_MASK64 = (1 << 64) - 1

_CMP_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class CodegenUnsupported(ScrubExecutionError):
    """The emitter cannot translate this expression (an operator the
    parser never produces, a leaf the row shape cannot read); the query
    is refused at install."""


@lru_cache(maxsize=512)
def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (%, _) into a compiled regex."""
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def _get_path(data: Mapping[str, Any], parts: tuple[str, ...]) -> Any:
    """Dotted-path fallback, mirroring ``Event._get_path`` exactly."""
    node: Any = data
    for part in parts:
        if not isinstance(node, Mapping):
            return None
        node = node.get(part)
        if node is None:
            return None
    return node


def _splitmix64(x: int) -> int:
    # Local copy of sampling._splitmix64 (avoids a cross-module import
    # on the hot path; the constants are pinned by the sampler tests).
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@lru_cache(maxsize=256)
def _code_for(source: str):
    """Compile generated source once; identical (query set, schema)
    pairs — e.g. a reinstall of the same span — reuse the code object."""
    return compile(source, "<scrub-codegen>", "exec")


# -- the statement emitter ----------------------------------------------------


class _Emitter:
    """Accumulates generated statements plus their closure environment."""

    def __init__(self, env: dict[str, Any], indent: int = 1) -> None:
        self.lines: list[str] = []
        self.indent = indent
        self.env = env
        self._counter = 0
        self.loads: dict[Any, str] = {}  # leaf key -> local var

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def name(self, prefix: str = "t") -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def const(self, value: Any, prefix: str) -> str:
        """Hoist *value* into the closure environment; returns its name."""
        name = self.name(prefix)
        self.env[name] = value
        return name

    def load(self, key: Any, source: str) -> str:
        """The local holding leaf *key*, read once by evaluating *source*."""
        var = self.loads.get(key)
        if var is None:
            var = self.loads[key] = self.name("f")
            self.emit(f"{var} = {source}")
        return var

    def function(self, name: str, params: str) -> Callable:
        source = f"def {name}({params}):\n" + "\n".join(self.lines) + "\n"
        exec(_code_for(source), self.env)
        return self.env[name]


def _literal_atom(em: _Emitter, value: Any) -> str:
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        if value == value and value not in (float("inf"), float("-inf")):
            return repr(value)  # repr round-trips finite floats
        return em.const(value, "c")
    return em.const(value, "c")


def _is_const_atom(atom: str) -> bool:
    """True when *atom* is an inline literal repr (not a variable).

    Variables are ``_``-prefixed temporaries/env names or the
    dispatcher parameters ``rid``/``now``; everything else came out of
    :func:`_literal_atom`.
    """
    return not (atom.startswith("_") or atom == "rid" or atom == "now")


def _ident_is(atom: str, singleton: str) -> str:
    """Source fragment for ``atom is <singleton>`` (None/True/False),
    constant-folded for literal atoms — both as an optimization and
    because CPython warns on ``is`` with a literal (and this repo
    promotes warnings to errors)."""
    if _is_const_atom(atom):
        return "True" if atom == singleton else "False"
    return f"({atom}) is {singleton}"


# -- row shapes -----------------------------------------------------------------

#: Resolves an expression the row shape reads directly to its atom
#: (emitting the load on first use); ``None`` for any other expression.
Leaf = Callable[[_Emitter, Expr], Optional[str]]


class RowShape(NamedTuple):
    """One row representation generated code can read."""

    #: Parameter list of the generated function.
    params: str
    leaf: Leaf
    env: dict[str, Any] = {}
    #: The shape's own C-level accessor for a bare field reference, where
    #: one beats a generated function (``itemgetter`` over wire rows does;
    #: ``methodcaller("get", ...)`` over Events measures 40 % slower).
    native: Callable[[FieldRef], Optional[Callable[[Any], Any]]] = lambda ref: None


def _payload_leaf(em: _Emitter, expr: Expr) -> Optional[str]:
    """``Event.get`` replicated over the raw payload dict plus the
    system-field parameters.  Host code runs on single events of a known
    type, so the qualifier is resolved away."""
    if not isinstance(expr, FieldRef):
        return None
    field = expr.field
    if field == REQUEST_ID:
        return "rid"
    if field == TIMESTAMP:
        return "now"
    if field == HOST:
        return "_HOST"
    fresh = field not in em.loads
    var = em.load(field, f"_get(data, {field!r})")
    if fresh and "." in field:
        parts = tuple(field.split("."))
        em.emit(f"if {var} is None and {field!r} not in data:")
        em.emit(f"    {var} = _GP(data, {parts!r})")
    return var


def payload_rows(host: str) -> RowShape:
    """``(data, rid, now)``: what the agent holds inside ``log()``."""
    return RowShape(
        "data, rid, now, _get=dict.get", _payload_leaf, {"_GP": _get_path, "_HOST": host}
    )


def event_rows(sources: tuple[str, ...]) -> RowShape:
    """Central rows: one source passes its rows directly (an ``Event``,
    or any mapping — both answer ``.get(field)``); a join passes
    ``{event_type: Event}``."""
    if len(sources) == 1:

        def single(em: _Emitter, expr: Expr) -> Optional[str]:
            if isinstance(expr, FieldRef):
                return em.load(expr.field, f"row.get({expr.field!r})")
            return None

        return RowShape("row", single)

    def joined(em: _Emitter, expr: Expr) -> Optional[str]:
        if not isinstance(expr, FieldRef):
            return None
        if expr.event_type is None:  # pragma: no cover - validator resolves all refs
            raise CodegenUnsupported(f"unresolved field reference {expr.field!r} in join")
        return em.load(expr, f"row[{expr.event_type!r}].get({expr.field!r})")

    return RowShape("row", joined)


def wire_rows(names: tuple[str, ...]) -> RowShape:
    """Wire rows (:func:`~repro.core.events.encoding.decode_fixed_rows`)
    of a single-source query laid out as *names*."""
    slots = fixed_row_slots(names)

    def leaf(em: _Emitter, expr: Expr) -> Optional[str]:
        if not isinstance(expr, FieldRef):
            return None
        slot = slots.get(expr.field)
        return "None" if slot is None else em.load(expr.field, f"row[{slot}]")

    def native(ref: FieldRef) -> Optional[Callable[[tuple], Any]]:
        slot = slots.get(ref.field)
        return None if slot is None else itemgetter(slot)

    return RowShape("row", leaf, native=native)


def output_rows(group_by: Sequence[Expr], agg_calls: Sequence[AggregateCall]) -> RowShape:
    """``(key, aggs)`` after aggregation: an expression structurally
    equal to a GROUP BY expression reads its slot of the group key, an
    aggregate call reads its result; anything else must be built from
    those — so ``1000 * AVG(cost)`` computes AVG first, arithmetic after."""
    sources = {expr: f"key[{i}]" for i, expr in enumerate(group_by)}
    sources.update((agg, f"aggs[{j}]") for j, agg in enumerate(agg_calls))

    def leaf(em: _Emitter, expr: Expr) -> Optional[str]:
        source = sources.get(expr)
        if source is not None:
            return em.load(expr, source)
        if isinstance(expr, (FieldRef, AggregateCall)):
            raise CodegenUnsupported(
                f"cannot evaluate {unparse(expr)} after aggregation; "
                "it is neither a group key nor an aggregate"
            )
        return None

    return RowShape("key, aggs", leaf)


# -- expressions ----------------------------------------------------------------


def _emit_expr(em: _Emitter, expr: Expr, leaf: Leaf) -> str:
    """Emit statements computing *expr*; returns the atom (a variable
    name or an inline literal) holding its value."""
    atom = leaf(em, expr)
    if atom is not None:
        return atom

    if isinstance(expr, Literal):
        return _literal_atom(em, expr.value)

    if isinstance(expr, BinaryOp):
        a = _emit_expr(em, expr.left, leaf)
        b = _emit_expr(em, expr.right, leaf)
        t = em.name()
        op = expr.op
        if op in ("+", "-", "*"):
            em.emit(
                f"{t} = None if {_ident_is(a, 'None')} or {_ident_is(b, 'None')} "
                f"else ({a}) {op} ({b})"
            )
        elif op in ("/", "%"):
            em.emit(
                f"{t} = None if {_ident_is(a, 'None')} or {_ident_is(b, 'None')} "
                f"or ({b}) == 0 else ({a}) {op} ({b})"
            )
        else:
            raise CodegenUnsupported(f"arithmetic operator {op!r}")
        return t

    if isinstance(expr, UnaryOp):
        a = _emit_expr(em, expr.operand, leaf)
        t = em.name()
        if expr.op == "-":
            em.emit(f"{t} = None if {_ident_is(a, 'None')} else -({a})")
        elif expr.op == "NOT":
            em.emit(f"{t} = None if {_ident_is(a, 'None')} else (not ({a}))")
        else:
            raise CodegenUnsupported(f"unary operator {expr.op!r}")
        return t

    if isinstance(expr, Comparison):
        return _emit_comparison(em, expr, leaf)

    if isinstance(expr, InList):
        return _emit_in(em, expr, leaf)

    if isinstance(expr, Between):
        return _emit_between(em, expr, leaf)

    if isinstance(expr, IsNull):
        a = _emit_expr(em, expr.expr, leaf)
        t = em.name()
        test = _ident_is(a, "None")
        em.emit(f"{t} = not ({test})" if expr.negated else f"{t} = {test}")
        return t

    if isinstance(expr, BoolOp):
        return _emit_boolop(em, expr, leaf)

    if isinstance(expr, AggregateCall):
        raise CodegenUnsupported(
            "aggregate calls cannot be evaluated per-row; the central engine "
            "substitutes their computed values"
        )

    raise CodegenUnsupported(f"cannot emit node {type(expr).__name__}")


def _emit_comparison(em: _Emitter, expr: Comparison, leaf: Leaf) -> str:
    a = _emit_expr(em, expr.left, leaf)
    b = _emit_expr(em, expr.right, leaf)
    t = em.name()
    if expr.op == "LIKE":
        if isinstance(expr.right, Literal) and isinstance(expr.right.value, str):
            # The common shape (the validator requires literal patterns):
            # hoist the compiled regex's bound fullmatch.
            rx = em.const(like_to_regex(expr.right.value).fullmatch, "rx")
            em.emit(
                f"{t} = None if {_ident_is(a, 'None')} "
                f"else ({rx}(str(({a}))) is not None)"
            )
        else:
            em.emit(
                f"{t} = None if {_ident_is(a, 'None')} or {_ident_is(b, 'None')} "
                f"else (_LRE(({b})).fullmatch(str(({a}))) is not None)"
            )
            em.env.setdefault("_LRE", like_to_regex)
        return t
    py_op = _CMP_OPS.get(expr.op)
    if py_op is None:
        raise CodegenUnsupported(f"comparison operator {expr.op!r}")
    em.emit(f"if {_ident_is(a, 'None')} or {_ident_is(b, 'None')}: {t} = None")
    em.emit("else:")
    em.emit("    try:")
    em.emit(f"        {t} = ({a}) {py_op} ({b})")
    em.emit("    except TypeError:")
    em.emit(f"        {t} = None")
    return t


def _emit_in(em: _Emitter, expr: InList, leaf: Leaf) -> str:
    a = _emit_expr(em, expr.expr, leaf)
    values = frozenset(v.value for v in expr.values)
    contains_null = any(v.value is None for v in expr.values)
    sname = em.const(values, "in")
    t = em.name()
    em.emit(f"if {_ident_is(a, 'None')}: {t} = None")
    em.emit("else:")
    em.emit("    try:")
    em.emit(f"        {t} = ({a}) in {sname}")
    em.emit("    except TypeError:")
    em.emit(f"        {t} = None")
    em.emit("    else:")
    if contains_null:
        # SQL: x IN (..., NULL) is UNKNOWN on a miss.
        decided = "False" if expr.negated else "True"
        em.emit(f"        {t} = {decided} if {t} else None")
    elif expr.negated:
        em.emit(f"        {t} = not {t}")
    else:
        em.emit("        pass")
    return t


def _emit_between(em: _Emitter, expr: Between, leaf: Leaf) -> str:
    # Evaluation order is operand, low, high — eager.
    v = _emit_expr(em, expr.expr, leaf)
    lo = _emit_expr(em, expr.low, leaf)
    hi = _emit_expr(em, expr.high, leaf)
    t = em.name()
    em.emit(
        f"if {_ident_is(v, 'None')} or {_ident_is(lo, 'None')} "
        f"or {_ident_is(hi, 'None')}: {t} = None"
    )
    em.emit("else:")
    em.emit("    try:")
    em.emit(f"        {t} = ({lo}) <= ({v}) <= ({hi})")
    em.emit("    except TypeError:")
    em.emit(f"        {t} = None")
    if expr.negated:
        em.emit("    else:")
        em.emit(f"        {t} = not {t}")
    return t


def _emit_boolop(em: _Emitter, expr: BoolOp, leaf: Leaf) -> str:
    if expr.op not in ("AND", "OR"):
        raise CodegenUnsupported(f"boolean operator {expr.op!r}")
    if not expr.terms:
        raise CodegenUnsupported("empty BoolOp")
    # Terms are evaluated in order, stopping only at an `is False` (AND)
    # / `is True` (OR) identity hit; NULL terms keep evaluating later
    # terms.  Every term after the first sits under one `if not decided:`
    # at the same depth, so a chain's indentation is its nesting level,
    # not its width (CPython caps indentation at 100 levels and nested
    # loops at 20, which rules out an else-ladder and a break-out loop).
    decisive = "False" if expr.op == "AND" else "True"
    default = "True" if expr.op == "AND" else "False"
    t = em.name()
    decided = em.name("d")
    atoms: list[str] = []
    for i, term in enumerate(expr.terms):
        if i:
            em.emit(f"if not {decided}:")
            em.indent += 1
        a = _emit_expr(em, term, leaf)
        atoms.append(a)
        em.emit(f"{decided} = {_ident_is(a, decisive)}")
        if i:
            em.indent -= 1
    # Undecided means every term ran, so every atom below is bound.
    nones = " or ".join(_ident_is(a, "None") for a in atoms)
    em.emit(f"{t} = {decisive} if {decided} else (None if {nones} else {default})")
    return t


def _preload(em: _Emitter, exprs: Iterable[Optional[Expr]], leaf: Leaf) -> None:
    """Emit every leaf load up front, once per distinct leaf.

    Loads are side-effect free, so hoisting them above everything else
    is safe — and required: a load first emitted inside one query's span
    guard, or under a chain's ``if not decided:``, would be an unbound
    name for the next reader.
    """
    for expr in exprs:
        if expr is not None and leaf(em, expr) is None:
            _preload(em, child_exprs(expr), leaf)


def _emitter_for(shape: RowShape, exprs: Iterable[Optional[Expr]]) -> _Emitter:
    em = _Emitter(dict(shape.env))
    _preload(em, exprs, shape.leaf)
    return em


def compile_expr(expr: Expr, shape: RowShape) -> Callable[..., Any]:
    """Compile *expr* into ``fn(<shape.params>) -> value`` (None = NULL)."""
    if isinstance(expr, FieldRef):
        accessor = shape.native(expr)
        if accessor is not None:
            return accessor
    em = _emitter_for(shape, (expr,))
    em.emit(f"return ({_emit_expr(em, expr, shape.leaf)})")
    return em.function("_fn", shape.params)


def compile_predicate(expr: Optional[Expr], shape: RowShape) -> Callable[..., bool]:
    """Compile a WHERE predicate: NULL is 'not true'; no predicate
    accepts every row."""
    em = _emitter_for(shape, (expr,))
    verdict = "True" if expr is None else _ident_is(_emit_expr(em, expr, shape.leaf), "True")
    em.emit(f"return {verdict}")
    return em.function("_fn", shape.params)


def compile_select(
    exprs: Sequence[Expr], shape: RowShape, where: Optional[Expr] = None
) -> Callable[..., Optional[tuple]]:
    """Compile a whole select list into one function returning the value
    tuple — or ``None`` for a row *where* is not definitely true of
    (*exprs* are then never evaluated)."""
    em = _emitter_for(shape, (where, *exprs))
    if where is not None:
        em.emit(f"if not ({_ident_is(_emit_expr(em, where, shape.leaf), 'True')}): return None")
    atoms = [_emit_expr(em, expr, shape.leaf) for expr in exprs]
    em.emit("return (" + "".join(f"{atom}, " for atom in atoms) + ")")
    return em.function("_fn", shape.params)


# -- the host's whole-path functions --------------------------------------------


@dataclass(frozen=True, eq=False)
class ArmedQuery:
    """What the generated host code needs to know about one armed query."""

    predicate: Optional[Expr]
    #: ``EventSampler`` internals: splitmix seed and integer threshold.
    sampler_seed: int
    sampler_threshold: int
    #: True when the sampler always keeps (rate >= 1.0, or the query
    #: pre-aggregates on the host and never consults the sampler).
    sample_always: bool
    activates_at: float
    expires_at: float
    #: Read by :func:`build_entry` only — the agent's installed-query
    #: object (``seen_by_window``, ``pending_dropped``) and its per-query
    #: stats, hoisted into the generated code's environment, never in the
    #: source text.
    iq: Any = None
    qstats: Any = None
    window_seconds: float = 1.0
    #: Projection field names; ``None`` ships the full payload.
    project: Optional[tuple[str, ...]] = None


def _emit_sample_gate(em: _Emitter, entry: ArmedQuery) -> None:
    """Unrolled splitmix64 finalizer over the shared pre-mix ``_h``;
    leaves the emitter indented inside ``if kept:``."""
    z = em.name("z")
    em.emit(
        f"{z} = (({entry.sampler_seed} ^ _h) + "
        f"{0x9E3779B97F4A7C15}) & {_MASK64}"
    )
    em.emit(f"{z} = (({z} ^ ({z} >> 30)) * {0xBF58476D1CE4E5B9}) & {_MASK64}")
    em.emit(f"{z} = (({z} ^ ({z} >> 27)) * {0x94D049BB133111EB}) & {_MASK64}")
    em.emit(f"{z} = {z} ^ ({z} >> 31)")
    em.emit(f"if {z} < {entry.sampler_threshold}:")
    em.indent += 1


def _emit_selection_head(em: _Emitter, entries: tuple[ArmedQuery, ...], result: str) -> None:
    """What every armed event pays before any query is looked at: the
    checked counter, the zeroed *result*, each field any predicate reads
    (once, shared by all queries) and the request-id pre-mix."""
    # events_checked moves into generated code: the entry count is a
    # compile-time constant here, a len() call in the interpreter.
    em.emit(f"_ST.events_checked += {len(entries)}")
    em.emit(f"{result} = 0")
    _preload(em, (e.predicate for e in entries), _payload_leaf)
    if any(not e.sample_always for e in entries):
        # One request-id pre-mix shared by every sampling query.
        em.env["_SM"] = _splitmix64
        em.emit(f"_h = _SM(rid & {_MASK64})")


def _selected(em: _Emitter, entries: tuple[ArmedQuery, ...]):
    """Yield ``(i, entry)`` with the emitter inside entry *i*'s span
    gate and selection — where the caller emits what a match does."""
    for i, entry in enumerate(entries):
        base_indent = em.indent
        gated = entry.activates_at > float("-inf") or entry.expires_at < float("inf")
        if gated:
            lo = em.const(entry.activates_at, "a")
            hi = em.const(entry.expires_at, "e")
            em.emit(f"if {lo} <= now < {hi}:")
            em.indent += 1
        if entry.predicate is not None:
            atom = _emit_expr(em, entry.predicate, _payload_leaf)
            em.emit(f"if {_ident_is(atom, 'True')}:")
            em.indent += 1
        yield i, entry
        em.indent = base_indent


def build_processor(
    entries: tuple[ArmedQuery, ...], *, host: str, stats: Any
) -> Callable[[dict, int, float], int]:
    """Generate ``process(data, rid, now)`` for an event type the agent
    walks itself: selection and the sampling decision of every armed
    query, fused — field loads emitted once and shared, constants
    inlined, the request-id pre-mix shared.  Returns two bits per entry
    *i*: ``1 << 2i`` selection matched, ``1 << 2i + 1`` sampler keep."""
    shape = payload_rows(host)
    em = _Emitter({**shape.env, "_ST": stats})
    _emit_selection_head(em, entries, "m")
    for i, entry in _selected(em, entries):
        match_bit = 1 << (2 * i)
        both_bits = match_bit | (match_bit << 1)
        if entry.sample_always:
            em.emit(f"m |= {both_bits}")
        else:
            _emit_sample_gate(em, entry)
            em.emit(f"m |= {both_bits}")
            em.indent -= 1
            em.emit("else:")
            em.emit(f"    m |= {match_bit}")
    em.emit("return m")
    return em.function("_process", shape.params)


#: Bit 31 of the fused matched count ``n``: a buffer append just reached
#: the agent's flush batch size, so the entry flushes on its way out
#: (replacing a per-call ``len()`` check with a branch the reject path
#: never pays).
FLUSH_DUE = 1 << 31
#: Low 31 bits of ``n``: the matched count.
COUNT_MASK = FLUSH_DUE - 1


def _emit_fused_body(
    em: _Emitter,
    entries: tuple[ArmedQuery, ...],
    *,
    event_type: str,
    buffer: Any,
    flush_batch_size: int,
) -> bool:
    """Emit selection → sampling → projection → buffer append for every
    entry: on a selection match the generated code does the seen/window
    accounting (window keys shared across queries with equal windows),
    applies the sampling decision, and appends ``(iq, payload, rid,
    now)`` to the bounded buffer with exact shipped/dropped accounting —
    no ``Event`` object is built: flush writes the batch's wire frame
    straight from these rows, off the application's hot path.  Mutable collaborators (the stats
    object, the buffer and its deque, each query's objects) live in the
    environment so identical query sets share one code object.  Leaves
    the matched count in ``n``; returns True when ``n`` can carry
    :data:`FLUSH_DUE`."""
    env = em.env
    env["_BUF"] = buffer
    env["_ITEMS"] = buffer._items
    _emit_selection_head(em, entries, "n")
    # Full-payload ships share one dict copy across queries; the
    # lazy-init dance is skipped when only one query needs it.
    keep_all_count = sum(1 for e in entries if e.project is None)
    if keep_all_count > 1:
        em.emit("_pv = None")
    # Window bookkeeping is shared across queries with the same window
    # length; single users compute it straight-line in-block.
    ws_users: dict[float, int] = {}
    for e in entries:
        ws_users[e.window_seconds] = ws_users.get(e.window_seconds, 0) + 1
    wvars: dict[float, tuple[str, str]] = {}
    for ws, users in ws_users.items():
        j = len(wvars)
        wvars[ws] = (f"_w{j}", f"_k{j}")
        if users > 1:
            em.emit(f"_w{j} = None")
    # The flush-due check is only emitted when an append can actually
    # reach the threshold (capacity caps the buffer's length).
    flush_check = flush_batch_size <= buffer._capacity
    for i, entry in _selected(em, entries):
        iq_name = f"_IQ{i}"
        qs_name = f"_QS{i}"
        env[iq_name] = entry.iq
        env[qs_name] = entry.qstats
        wv, kv = wvars[entry.window_seconds]
        em.emit("n += 1")
        em.emit(f"{qs_name}.seen += 1")
        if ws_users[entry.window_seconds] > 1:
            em.emit(f"if {wv} is None:")
            em.emit(f"    {wv} = int(now // {entry.window_seconds!r})")
            em.emit(f"    {kv} = ({event_type!r}, {wv})")
        else:
            em.emit(f"{kv} = ({event_type!r}, int(now // {entry.window_seconds!r}))")
        em.emit(f"_sb = {iq_name}.seen_by_window")
        em.emit("try:")
        em.emit(f"    _sb[{kv}] += 1")
        em.emit("except KeyError:")
        em.emit(f"    _sb[{kv}] = 1")
        if not entry.sample_always:
            _emit_sample_gate(em, entry)
        if entry.project is None:
            if keep_all_count > 1:
                em.emit("if _pv is None:")
                em.emit("    _pv = dict(data)")
            else:
                em.emit("_pv = dict(data)")
            out = "_pv"
        elif not entry.project:
            out = "{}"
        else:
            out = f"_p{i}"
            em.emit(f"{out} = {{}}")
            for field in entry.project:
                em.emit(f"if {field!r} in data: {out}[{field!r}] = data[{field!r}]")
        # Inlined BoundedBuffer.offer_unlocked: the agent lock
        # serializes every producer and the drainer.
        em.emit("_BUF._offered += 1")
        em.emit(f"if len(_ITEMS) < {buffer._capacity}:")
        em.emit(f"    _ITEMS.append(({iq_name}, {out}, rid, now))")
        if flush_check:
            em.emit(f"    if len(_ITEMS) >= {flush_batch_size}:")
            em.emit(f"        n |= {FLUSH_DUE}")
        em.emit(f"    {qs_name}.shipped += 1")
        em.emit("    _ST.events_shipped += 1")
        em.emit("else:")
        em.emit("    _BUF._dropped += 1")
        em.emit(f"    {qs_name}.dropped += 1")
        em.emit(f"    {iq_name}.pending_dropped += 1")
        em.emit("    _ST.events_dropped += 1")
    em.emit("if n:")
    # n carries the flush-due flag in bit 31; keep it out of the counter.
    em.emit(
        f"    _ST.events_matched += n & {COUNT_MASK}"
        if flush_check
        else "    _ST.events_matched += n"
    )
    return flush_check


def build_entry(
    entries: tuple[ArmedQuery, ...],
    *,
    event_type: str,
    host: str,
    stats: Any,
    buffer: Any,
    flush_batch_size: int,
    group: Any,
    clock: Callable[[], float],
    lock_acquire: Callable[[], Any],
    lock_release: Callable[[], Any],
    flush: Callable[..., Any],
    timing_every: int,
    ewma_alpha: float,
    registry_get: Optional[Callable[[str], Any]] = None,
) -> Callable[..., int]:
    """Generate the whole armed ``log()`` entry for an ungoverned,
    non-aggregating group: the clock read, payload normalization, lock,
    1-in-N timing sample and the fused body are a single generated
    function — no dispatcher frame, no ``self`` attribute traffic, no
    inner ``process`` call on the per-event path.  The timed
    1-in-*timing_every* branch duplicates the body rather than calling
    it, so the common branch stays call-free.
    """
    env: dict[str, Any] = {
        **payload_rows(host).env,
        "_ST": stats,
        "_G": group,
        "_CLOCK": clock,
        "_ACQ": lock_acquire,
        "_REL": lock_release,
        "_FLUSH": flush,
        "_PERF": perf_counter,
    }
    iqs = tuple(e.iq for e in entries)

    def _charge(dt: float, _iqs=iqs, _n=len(iqs), _alpha=ewma_alpha) -> None:
        # Mirrors _log_routed's timed tail for a governor-free group:
        # the sampled dispatch wall time splits evenly across the armed
        # queries and feeds each one's cost EWMA.
        cost_ns = dt / _n * 1e9
        for iq in _iqs:
            prev = iq.ewma_ns
            iq.ewma_ns = (
                cost_ns if prev is None else prev + _alpha * (cost_ns - prev)
            )

    env["_CHARGE"] = _charge
    body_em = _Emitter(env, indent=3)
    flush_check = _emit_fused_body(
        body_em,
        entries,
        event_type=event_type,
        buffer=buffer,
        flush_batch_size=flush_batch_size,
    )
    head = [
        "    _ST.events_examined += 1",
        "    now = timestamp if timestamp is not None else _CLOCK()",
        "    if payload is None:",
        "        data = fields",
        "    elif fields:",
        "        data = {**payload, **fields}",
        "    elif type(payload) is dict:",
        "        data = payload",
        "    else:",
        "        data = dict(payload)",
    ]
    if registry_get is not None:
        env["_REGGET"] = registry_get
        head.append(f"    data = _REGGET({event_type!r}).coerce_payload(data)")
    # 1-in-N sampling: bitmask for power-of-two N (the default 64).
    untimed = (
        f"c & {timing_every - 1}"
        if timing_every & (timing_every - 1) == 0
        else f"c % {timing_every}"
    )
    head += [
        "    _ACQ()",
        "    try:",
        "        c = _G.calls + 1",
        "        _G.calls = c",
        f"        if {untimed}:",
    ]
    timed = [
        "        else:",
        "            _t0 = _PERF()",
        *body_em.lines,
        "            _CHARGE(_PERF() - _t0)",
    ]
    tail = ["    finally:", "        _REL()"]
    if flush_check:
        tail += [
            f"    if n > {COUNT_MASK}:",
            "        _FLUSH(now)",
            f"        return n & {COUNT_MASK}",
        ]
    tail.append("    return n")
    body_em.lines = head + body_em.lines + timed + tail
    return body_em.function("_entry", "payload, rid, timestamp, fields, _get=dict.get")
