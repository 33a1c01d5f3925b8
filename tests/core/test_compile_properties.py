"""Property tests for the expression compiler (SQL three-valued logic).

The generated code of ``core/query/codegen.py`` is the hot path on every
host and in ScrubCentral, so it is heavily shaped for speed; this file
pins its *semantics* two independent ways — against the closure compiler
kept in the test tree as the oracle (``closure_oracle.py``) and against
a naive tree-walking reference interpreter that states the SQL 3VL rules
as directly as possible:

* a missing field is NULL; anything arithmetic or comparative touching
  NULL is NULL;
* AND/OR are Kleene connectives evaluated left-to-right, stopping at
  the first decisive term (False for AND, True for OR); an unknown
  term only matters if no decisive term exists;
* division (and modulo) by zero is NULL, never an exception;
* runtime type mismatches in comparisons degrade to NULL, never abort
  a query.

Hypothesis generates random expression trees and random rows (with
fields missing, the common case for optional event payload members) and
checks that the interpreter, the oracle and the generated code agree
exactly — including on *which* inputs raise (unary minus on a string is
a TypeError; ``'%' % x`` is Python's string formatting and can raise
ValueError; these are validator-level errors all three paths must
surface identically) — for **every row shape** generated code reads:
plain dicts, ``Event``s, the raw ``(data, rid, now)`` payload of a
``log()`` call, joined rows, wire-row tuples and post-aggregation
``(key, aggs)`` leaves.

``derandomize=True`` keeps the suite deterministic in CI: the examples
are a fixed function of the test body, not the clock.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.events.encoding import fixed_row_slots
from repro.core.query.ast import (
    AggregateCall,
    Between,
    BinaryOp,
    BoolOp,
    Comparison,
    FieldRef,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.core.query.codegen import (
    compile_expr as generate_expr,
    compile_predicate as generate_predicate,
    compile_select,
    event_rows,
    like_to_regex,
    output_rows,
    payload_rows,
    wire_rows,
)
from repro.core.query.errors import ScrubSyntaxError
from repro.core.query.parser import MAX_EXPR_DEPTH, parse_expression

from .closure_oracle import compile_expr, compile_predicate

FIELDS = ("a", "b", "c", "s")

#: Rows that answer ``.get(field)``: plain dicts here, Events below.
ROWS = event_rows(("t",))


def _getter(event_type, fieldname):
    return lambda row: row.get(fieldname)


# -- the reference interpreter ------------------------------------------------


def _read_field(row, ref):
    return row.get(ref.field)


def evaluate(expr, row, read=_read_field):
    """Tree-walking reference evaluation of *expr* over *row*, whose
    fields *read* knows how to fetch."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, FieldRef):
        return read(row, expr)
    if isinstance(expr, BinaryOp):
        a = evaluate(expr.left, row, read)
        b = evaluate(expr.right, row, read)
        if a is None or b is None:
            return None
        if expr.op in ("/", "%") and b == 0:
            return None
        return {
            "+": lambda: a + b,
            "-": lambda: a - b,
            "*": lambda: a * b,
            "/": lambda: a / b,
            "%": lambda: a % b,
        }[expr.op]()
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, row, read)
        if value is None:
            return None
        return (not value) if expr.op == "NOT" else -value
    if isinstance(expr, Comparison):
        a = evaluate(expr.left, row, read)
        b = evaluate(expr.right, row, read)
        if a is None or b is None:
            return None
        if expr.op == "LIKE":
            return like_to_regex(b).fullmatch(str(a)) is not None
        try:
            return {
                "=": lambda: a == b,
                "!=": lambda: a != b,
                "<": lambda: a < b,
                "<=": lambda: a <= b,
                ">": lambda: a > b,
                ">=": lambda: a >= b,
            }[expr.op]()
        except TypeError:
            return None
    if isinstance(expr, InList):
        value = evaluate(expr.expr, row, read)
        if value is None:
            return None
        try:
            hit = any(value == lit.value for lit in expr.values)
        except TypeError:
            return None
        if not hit and any(lit.value is None for lit in expr.values):
            return None
        return (not hit) if expr.negated else hit
    if isinstance(expr, Between):
        value = evaluate(expr.expr, row, read)
        lo = evaluate(expr.low, row, read)
        hi = evaluate(expr.high, row, read)
        if value is None or lo is None or hi is None:
            return None
        try:
            hit = lo <= value and value <= hi
        except TypeError:
            return None
        return (not hit) if expr.negated else hit
    if isinstance(expr, IsNull):
        null = evaluate(expr.expr, row, read) is None
        return (not null) if expr.negated else null
    if isinstance(expr, BoolOp):
        # Left-to-right with a stop at the first decisive term, matching
        # both compilers: terms after the decision are never evaluated,
        # so an error lurking there never surfaces.
        decisive = False if expr.op == "AND" else True
        unknown = False
        for term in expr.terms:
            v = evaluate(term, row, read)
            if v is decisive:
                return decisive
            if v is None:
                unknown = True
        return None if unknown else (not decisive)
    raise AssertionError(f"unhandled node {type(expr).__name__}")


def _outcome(fn):
    """Value, or the kind of error evaluation raised (validator-level
    typing errors — TypeError from e.g. ``-'a'``, ValueError from
    string-formatting ``%`` — which every path must surface alike)."""
    try:
        return ("value", fn())
    except (TypeError, ValueError) as exc:
        return ("error", type(exc).__name__)


# -- strategies ---------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.text(alphabet="ab%_", max_size=4),
)

literals = st.builds(Literal, scalars)
field_refs = st.builds(FieldRef, st.none(), st.sampled_from(FIELDS))
leaves = st.one_of(literals, field_refs)


def _extend(children):
    return st.one_of(
        st.builds(
            BinaryOp, st.sampled_from(["+", "-", "*", "/", "%"]), children, children
        ),
        st.builds(UnaryOp, st.sampled_from(["-", "NOT"]), children),
        st.builds(
            Comparison,
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            children,
            children,
        ),
        # LIKE patterns must be string literals (the validator enforces it).
        st.builds(
            Comparison,
            st.just("LIKE"),
            children,
            st.builds(Literal, st.text(alphabet="ab%_", max_size=4)),
        ),
        st.builds(
            InList,
            children,
            st.lists(literals, min_size=1, max_size=4).map(tuple),
            st.booleans(),
        ),
        st.builds(Between, children, children, children, st.booleans()),
        st.builds(IsNull, children, st.booleans()),
        st.builds(
            lambda op, terms: BoolOp(op, tuple(terms)),
            st.sampled_from(["AND", "OR"]),
            st.lists(children, min_size=2, max_size=4),
        ),
    )


expressions = st.recursive(leaves, _extend, max_leaves=20)
rows = st.dictionaries(st.sampled_from(FIELDS), scalars, max_size=len(FIELDS))


# -- the differential properties: dict rows -------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=expressions, row=rows)
def test_compiled_matches_reference(expr, row):
    """Three-way: interpreter, closure oracle and generated code produce
    identical values *and* identical error kinds."""
    compiled = compile_expr(expr, _getter)
    generated = generate_expr(expr, ROWS)
    reference = _outcome(lambda: evaluate(expr, row))
    assert _outcome(lambda: compiled(row)) == reference
    assert _outcome(lambda: generated(row)) == reference


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=expressions, row=rows)
def test_predicate_is_definitely_true_semantics(expr, row):
    """WHERE passes a row iff the expression is *definitely* True."""
    predicate = compile_predicate(expr, _getter)
    generated = generate_predicate(expr, ROWS)
    outcome = _outcome(lambda: evaluate(expr, row))
    if outcome[0] == "error":
        return  # all paths raise; covered by the differential property
    assert predicate(row) is (outcome[1] is True)
    assert generated(row) is (outcome[1] is True)


# -- every other row shape ---------------------------------------------------------

#: What an Event (and the payload shape that replicates ``Event.get``)
#: can be asked for beyond plain payload keys: the system fields, which
#: shadow a payload key of the same name, and a dotted name — present
#: literally, reachable as a path, or blocked by a non-mapping.
EVENT_FIELDS = FIELDS + ("request_id", "timestamp", "host", "m.x")

event_expressions = st.recursive(
    st.one_of(literals, st.builds(FieldRef, st.none(), st.sampled_from(EVENT_FIELDS))),
    _extend,
    max_leaves=12,
)
payloads = st.fixed_dictionaries(
    {},
    optional={
        **{name: scalars for name in FIELDS},
        "request_id": scalars,  # never seen: the system field wins
        "m.x": scalars,
        "m": st.one_of(scalars, st.fixed_dictionaries({}, optional={"x": scalars})),
    },
)
request_ids = st.integers(min_value=0, max_value=2**63 - 1)
timestamps = st.floats(min_value=0.0, max_value=4e9, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=event_expressions, data=payloads, rid=request_ids, now=timestamps)
def test_event_and_payload_shapes_match_reference(expr, data, rid, now):
    """``Event.get`` defines field access; generated code must agree
    with it whether it holds the Event or only what ``log()`` was handed."""
    event = Event("t", data, rid, now, "h1")
    reference = _outcome(lambda: evaluate(expr, event))
    assert _outcome(lambda: compile_expr(expr, _getter)(event)) == reference
    assert _outcome(lambda: generate_expr(expr, ROWS)(event)) == reference
    on_payload = generate_expr(expr, payload_rows("h1"))
    assert _outcome(lambda: on_payload(data, rid, now)) == reference
    if reference[0] == "value":
        assert generate_predicate(expr, payload_rows("h1"))(data, rid, now) is (
            reference[1] is True
        )


def _joined_getter(event_type, fieldname):
    return lambda row: row[event_type].get(fieldname)


joined_expressions = st.recursive(
    st.one_of(
        literals,
        st.builds(FieldRef, st.sampled_from(["l", "r"]), st.sampled_from(FIELDS + ("request_id",))),
    ),
    _extend,
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=joined_expressions, left=rows, right=rows, rid=request_ids)
def test_joined_rows_match_reference(expr, left, right, rid):
    row = {"l": Event("l", left, rid, 1.0, "h1"), "r": Event("r", right, rid, 2.0, "h2")}
    reference = _outcome(
        lambda: evaluate(expr, row, lambda row, ref: row[ref.event_type].get(ref.field))
    )
    assert _outcome(lambda: compile_expr(expr, _joined_getter)(row)) == reference
    assert _outcome(lambda: generate_expr(expr, event_rows(("l", "r")))(row)) == reference


#: A wire layout lacking ``c``: the field is a literal NULL in generated
#: code, not a slot.
WIRE_NAMES = ("s", "a", "b")
_WIRE_SLOTS = fixed_row_slots(WIRE_NAMES)
wire_expressions = st.recursive(
    st.one_of(
        literals, st.builds(FieldRef, st.none(), st.sampled_from(FIELDS + ("request_id", "timestamp")))
    ),
    _extend,
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    expr=wire_expressions,
    values=st.tuples(scalars, scalars, scalars),
    rid=request_ids,
    now=timestamps,
)
def test_wire_rows_match_reference(expr, values, rid, now):
    present = dict(zip(WIRE_NAMES, values), request_id=rid, timestamp=now)
    row = [b"\x00"] * (4 + 2 * len(WIRE_NAMES))  # constant chunks between the values
    for name, value in present.items():
        row[_WIRE_SLOTS[name]] = value
    row = tuple(row)
    reference = _outcome(lambda: evaluate(expr, present))
    assert _outcome(lambda: compile_expr(expr, _getter)(present)) == reference
    assert _outcome(lambda: generate_expr(expr, wire_rows(WIRE_NAMES))(row)) == reference


#: Post-aggregation leaves: ``a`` is a group key as written, ``b`` stands
#: for a *computed* group key, ``c`` and ``s`` for aggregate results.
_LEAVES = {
    FieldRef(None, "b"): BinaryOp("+", FieldRef("t", "x"), Literal(1)),
    FieldRef(None, "c"): AggregateCall("COUNT"),
    FieldRef(None, "s"): AggregateCall("TOP", FieldRef("t", "x"), k=3),
}
_GROUP_BY = (FieldRef(None, "a"), _LEAVES[FieldRef(None, "b")])
_AGG_CALLS = (_LEAVES[FieldRef(None, "c")], _LEAVES[FieldRef(None, "s")])
_OUTPUT = output_rows(_GROUP_BY, _AGG_CALLS)


def _as_output(expr):
    """*expr* with each field standing for a post-aggregation leaf
    replaced by that leaf."""
    swapped = _LEAVES.get(expr)
    if swapped is not None:
        return swapped
    if isinstance(expr, (BinaryOp, Comparison)):
        return type(expr)(expr.op, _as_output(expr.left), _as_output(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _as_output(expr.operand))
    if isinstance(expr, InList):
        return InList(_as_output(expr.expr), expr.values, expr.negated)
    if isinstance(expr, Between):
        return Between(
            _as_output(expr.expr), _as_output(expr.low), _as_output(expr.high), expr.negated
        )
    if isinstance(expr, IsNull):
        return IsNull(_as_output(expr.expr), expr.negated)
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(_as_output(t) for t in expr.terms))
    return expr


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=expressions, having=expressions, row=rows)
def test_post_aggregation_leaves_match_reference(expr, having, row):
    """What HAVING and the SELECT list run through: group-key slots and
    aggregate results as leaves, the same 3VL above them — and one
    function answering both "does HAVING keep the group" and "what row"."""
    key = (row.get("a"), row.get("b"))
    aggs = [row.get("c"), row.get("s")]
    reference = _outcome(lambda: evaluate(expr, row))
    assert _outcome(lambda: compile_expr(expr, _getter)(row)) == reference
    assert _outcome(lambda: generate_expr(_as_output(expr), _OUTPUT)(key, aggs)) == reference

    def select_where():
        if evaluate(having, row) is not True:
            return None  # the select list is never evaluated
        return (evaluate(expr, row), row.get("a"))

    output = compile_select(
        [_as_output(expr), FieldRef(None, "a")], _OUTPUT, where=_as_output(having)
    )
    assert _outcome(lambda: output(key, aggs)) == _outcome(select_where)


# -- wide and deep expressions -----------------------------------------------------


def _three_way(expr, row):
    reference = _outcome(lambda: evaluate(expr, row))
    assert _outcome(lambda: compile_expr(expr, _getter)(row)) == reference
    assert _outcome(lambda: generate_expr(expr, ROWS)(row)) == reference
    on_payload = generate_expr(expr, payload_rows("h1"))
    assert _outcome(lambda: on_payload(row, 1, 0.0)) == reference
    return reference


@pytest.mark.parametrize("op", ["AND", "OR"])
def test_two_hundred_term_chain(op):
    """A chain's generated indentation is its nesting, not its width —
    and stopping at the decisive term still protects what follows it."""
    conjunction = op == "AND"
    row = {"a": 1, "s": "text"}
    # On that row `a = 1` is True and `a = 2` False: one is the filler
    # that decides nothing, the other the decisive term.
    filler = Comparison("=", _A, Literal(1 if conjunction else 2))
    decisive = Comparison("=", _A, Literal(2 if conjunction else 1))
    unknown = Comparison("=", FieldRef(None, "missing"), Literal(1))
    raises = UnaryOp("-", FieldRef(None, "s"))  # TypeError on a string

    def chain(special):
        return BoolOp(op, tuple(special.get(i, filler) for i in range(200)))

    assert _three_way(chain({}), row) == ("value", conjunction)
    # NULL terms in the middle make it UNKNOWN, whatever surrounds them.
    assert _three_way(chain({90: unknown, 91: unknown}), row) == ("value", None)
    # The decisive term wins over a NULL before it and shields the raiser after it.
    assert _three_way(chain({90: unknown, 120: decisive, 150: raises}), row) == (
        "value", not conjunction,
    )
    # A raiser *before* the decisive term raises, on every path alike.
    assert _three_way(chain({100: raises, 120: decisive}), row) == ("error", "TypeError")


def _deepest(wrap, seed, depth):
    """*wrap* applied to *seed* until the tree is *depth* levels deep."""
    expr, level = seed, 1
    while level < depth:
        expr, level = wrap(expr, level), level + 1
    return expr


_A = FieldRef(None, "a")
DEEPEST = {
    "arithmetic": lambda e, k: BinaryOp("+-*"[k % 3], e, Literal(k % 5)),
    "unary_minus": lambda e, k: UnaryOp("-", e),
    "not": lambda e, k: UnaryOp("NOT", e),
    "comparison": lambda e, k: Comparison(("=", "!=", "<=")[k % 3], e, Literal(bool(k % 2))),
    "in_list": lambda e, k: InList(e, (Literal(True), Literal(2)), negated=bool(k % 2)),
    "between": lambda e, k: Between(e, Literal(False), Literal(3), negated=bool(k % 3)),
    "is_null": lambda e, k: IsNull(e, negated=bool(k % 2)),
    "and_or": lambda e, k: BoolOp(
        "AND" if k % 2 else "OR", (Comparison(">", FieldRef(None, "b"), Literal(k)), e, Literal(None))
    ),
}


@pytest.mark.parametrize("node", DEEPEST)
def test_deepest_admissible_expression_compiles_and_agrees(node):
    """Whatever the parser admits, the emitter translates — worst case
    included: a full-depth AND/OR alternation is where generated
    indentation peaks, inside CPython's 100-level limit."""
    expr = _deepest(DEEPEST[node], _A, MAX_EXPR_DEPTH)
    for row in ({"a": 1, "b": 40}, {"a": 0, "b": 70}, {"b": 3}, {}):
        _three_way(expr, row)


def test_parser_admits_exactly_the_depth_the_emitter_is_sized_for():
    """The AND/OR alternation written out as query text: the deepest one
    that parses is MAX_EXPR_DEPTH levels, and it compiles."""

    def text(levels):
        out = "a = 1"  # a comparison over leaves: two levels
        for k in range(levels - 2):
            out = f"({out}) {'and' if k % 2 else 'or'} b > {k}"
        return out

    deepest = parse_expression(text(MAX_EXPR_DEPTH))
    _three_way(deepest, {"a": 1, "b": 30})
    with pytest.raises(ScrubSyntaxError, match=f"deeper than {MAX_EXPR_DEPTH} levels"):
        parse_expression(text(MAX_EXPR_DEPTH + 1))


# -- pinned 3VL corner cases --------------------------------------------------


def _both(expr):
    return compile_expr(expr, _getter), generate_expr(expr, ROWS)


def test_kleene_truth_tables_exhaustive():
    """AND/OR over every combination of {True, False, NULL} up to width 3."""
    for op in ("AND", "OR"):
        for width in (2, 3):
            for combo in itertools.product([True, False, None], repeat=width):
                expr = BoolOp(op, tuple(Literal(v) for v in combo))
                if op == "AND":
                    expected = (
                        False
                        if False in combo
                        else (None if None in combo else True)
                    )
                else:
                    expected = (
                        True
                        if True in combo
                        else (None if None in combo else False)
                    )
                for fn in _both(expr):
                    assert fn({}) is expected, (op, combo)


def test_division_and_modulo_by_zero_are_null():
    for op in ("/", "%"):
        for numerator in (0, 7, -3, 2.5):
            for fn in _both(BinaryOp(op, Literal(numerator), Literal(0))):
                assert fn({}) is None
        # NULL numerator over zero denominator is still NULL, not an error.
        for fn in _both(BinaryOp(op, FieldRef(None, "a"), Literal(0))):
            assert fn({}) is None


def test_missing_field_propagates_null_through_arithmetic():
    for fn in _both(BinaryOp("+", FieldRef(None, "a"), Literal(1))):
        assert fn({}) is None
        assert fn({"a": 2}) == 3


def test_in_list_with_null_member_is_unknown_on_miss():
    for fn in _both(InList(FieldRef(None, "a"), (Literal(1), Literal(None)))):
        assert fn({"a": 1}) is True  # hit beats the NULL member
        assert fn({"a": 2}) is None  # miss with NULL in the list: UNKNOWN
        assert fn({}) is None


def test_bare_wire_field_is_the_itemgetter_itself():
    """No Python frame for the commonest accessor of the row door."""
    assert isinstance(generate_expr(_A, wire_rows(WIRE_NAMES)), itemgetter)
    assert generate_expr(FieldRef(None, "c"), wire_rows(WIRE_NAMES))(()) is None
