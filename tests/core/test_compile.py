"""Tests for expression compilation: SQL three-valued logic, LIKE, arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.query.codegen import (
    CodegenUnsupported,
    compile_expr,
    compile_predicate,
    event_rows,
    like_to_regex,
)
from repro.core.query.parser import parse_expression

_EVENTS = event_rows(("t",))


def ev(**payload):
    return Event("t", payload, request_id=1, timestamp=0.0)


def eval_expr(text, event):
    return compile_expr(parse_expression(text), _EVENTS)(event)


def check(text, event):
    return compile_predicate(parse_expression(text), _EVENTS)(event)


class TestComparisons:
    def test_basic_ops(self):
        e = ev(x=5)
        assert eval_expr("x = 5", e) is True
        assert eval_expr("x != 5", e) is False
        assert eval_expr("x < 6", e) is True
        assert eval_expr("x <= 5", e) is True
        assert eval_expr("x > 5", e) is False
        assert eval_expr("x >= 6", e) is False

    def test_null_comparisons_are_unknown(self):
        e = ev()
        assert eval_expr("x = 5", e) is None
        assert eval_expr("x != 5", e) is None
        assert eval_expr("x < 5", e) is None

    def test_type_mismatch_yields_null_not_crash(self):
        e = ev(x="str")
        assert eval_expr("x < 5", e) is None

    def test_string_equality(self):
        e = ev(city="Porto")
        assert eval_expr("city = 'Porto'", e) is True
        assert eval_expr("city = 'porto'", e) is False


class TestBooleanLogic:
    def test_and_short_circuit_false(self):
        e = ev(a=1)  # b missing -> unknown
        assert eval_expr("a = 2 and b = 1", e) is False

    def test_and_with_unknown(self):
        e = ev(a=1)
        assert eval_expr("a = 1 and b = 1", e) is None

    def test_or_true_dominates_unknown(self):
        e = ev(a=1)
        assert eval_expr("a = 1 or b = 1", e) is True

    def test_or_with_unknown(self):
        e = ev(a=1)
        assert eval_expr("a = 2 or b = 1", e) is None

    def test_not_unknown_is_unknown(self):
        e = ev()
        assert eval_expr("not x = 1", e) is None

    def test_predicate_treats_unknown_as_reject(self):
        e = ev()
        assert check("x = 1", e) is False
        assert check("not x = 1", e) is False  # NOT UNKNOWN is still not TRUE

    def test_empty_predicate_accepts_all(self):
        assert compile_predicate(None, _EVENTS)(ev()) is True


class TestInBetweenNull:
    def test_in(self):
        e = ev(x=2)
        assert eval_expr("x in (1, 2, 3)", e) is True
        assert eval_expr("x in (4, 5)", e) is False
        assert eval_expr("x not in (4, 5)", e) is True

    def test_in_with_null_member_sql_semantics(self):
        e = ev(x=9)
        assert eval_expr("x in (1, null)", e) is None

    def test_in_on_null_operand(self):
        assert eval_expr("x in (1, 2)", ev()) is None

    def test_between(self):
        e = ev(x=3)
        assert eval_expr("x between 1 and 5", e) is True
        assert eval_expr("x between 4 and 5", e) is False
        assert eval_expr("x not between 4 and 5", e) is True

    def test_between_null(self):
        assert eval_expr("x between 1 and 5", ev()) is None

    def test_is_null(self):
        assert eval_expr("x is null", ev()) is True
        assert eval_expr("x is null", ev(x=1)) is False
        assert eval_expr("x is not null", ev(x=1)) is True


class TestLike:
    def test_percent_wildcard(self):
        e = ev(city="San Jose")
        assert eval_expr("city like 'San%'", e) is True
        assert eval_expr("city like '%Jose'", e) is True
        assert eval_expr("city like '%an%'", e) is True
        assert eval_expr("city like 'San'", e) is False

    def test_underscore_wildcard(self):
        e = ev(code="A1B")
        assert eval_expr("code like 'A_B'", e) is True
        assert eval_expr("code like 'A__B'", e) is False

    def test_regex_metacharacters_escaped(self):
        e = ev(s="a.b")
        assert eval_expr("s like 'a.b'", e) is True
        assert eval_expr("s like 'axb'", e) is False

    def test_like_null(self):
        assert eval_expr("city like 'x%'", ev()) is None

    def test_like_regex_cached(self):
        assert like_to_regex("San%") is like_to_regex("San%")


class TestArithmetic:
    def test_basic(self):
        e = ev(x=10, y=4)
        assert eval_expr("x + y", e) == 14
        assert eval_expr("x - y", e) == 6
        assert eval_expr("x * y", e) == 40
        assert eval_expr("x / y", e) == 2.5
        assert eval_expr("x % y", e) == 2

    def test_division_by_zero_is_null(self):
        e = ev(x=10, y=0)
        assert eval_expr("x / y", e) is None
        assert eval_expr("x % y", e) is None

    def test_null_propagation(self):
        e = ev(x=10)
        assert eval_expr("x + y", e) is None
        assert eval_expr("-y", e) is None

    def test_unary_minus(self):
        assert eval_expr("-x", ev(x=5)) == -5

    def test_literal_arithmetic(self):
        assert eval_expr("1000 * 2", ev()) == 2000


class TestAggregateCompileRejected:
    def test_aggregate_cannot_compile_per_row(self):
        with pytest.raises(CodegenUnsupported, match="aggregate"):
            compile_expr(parse_expression("COUNT(*)"), _EVENTS)


# -- property: predicate evaluation matches Python semantics on known fields -----


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(min_value=-100, max_value=100),
    low=st.integers(min_value=-100, max_value=100),
    high=st.integers(min_value=-100, max_value=100),
)
def test_between_matches_python(x, low, high):
    result = eval_expr(f"x between {low} and {high}", ev(x=x))
    assert result is (low <= x <= high)


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(min_value=-50, max_value=50),
    members=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6),
)
def test_in_matches_python(x, members):
    text = f"x in ({', '.join(map(str, members))})"
    assert eval_expr(text, ev(x=x)) is (x in members)
