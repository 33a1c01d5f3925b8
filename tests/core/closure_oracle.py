"""The closure compiler: the differential oracle for ``query/codegen.py``.

Production evaluates the query language with generated code only; this
module states the same semantics a second, independent way — an AST
compiled once into nested closures, one small Python function per node,
over whatever row a caller-supplied ``FieldGetter`` knows how to read —
so the Hypothesis suites can hold the generated code to it (and to a
tree-walking interpreter) on values and on which inputs raise.

Semantics follow SQL three-valued logic: a missing field is NULL,
comparisons and arithmetic involving NULL yield NULL (``None``), AND/OR
propagate unknowns, and a WHERE predicate only passes rows for which it
is definitely true.  Division by zero yields NULL rather than aborting a
running query.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.query.ast import (
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
)
from repro.core.query.codegen import like_to_regex
from repro.core.query.errors import ScrubValidationError

__all__ = ["compile_expr", "compile_predicate", "FieldGetter"]

#: Builds a value accessor for one resolved field reference.  Given the
#: (event_type, field) pair, returns a closure mapping a *row* (whatever
#: the caller evaluates over: an Event, a joined row, ...) to the value.
FieldGetter = Callable[[Optional[str], str], Callable[[Any], Any]]


def compile_expr(expr: Expr, field_getter: FieldGetter) -> Callable[[Any], Any]:
    """Compile *expr* into a closure ``row -> value`` (None = NULL)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, FieldRef):
        return field_getter(expr.event_type, expr.field)
    if isinstance(expr, BinaryOp):
        left = compile_expr(expr.left, field_getter)
        right = compile_expr(expr.right, field_getter)
        return _compile_arith(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, field_getter)
        if expr.op == "-":
            def negate(row: Any) -> Any:
                value = operand(row)
                return None if value is None else -value
            return negate
        if expr.op == "NOT":
            def invert(row: Any) -> Any:
                value = operand(row)
                return None if value is None else (not value)
            return invert
        raise ScrubValidationError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Comparison):
        return _compile_comparison(expr, field_getter)
    if isinstance(expr, InList):
        return _compile_in(expr, field_getter)
    if isinstance(expr, Between):
        return _compile_between(expr, field_getter)
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.expr, field_getter)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, BoolOp):
        terms = [compile_expr(t, field_getter) for t in expr.terms]
        if expr.op == "AND":
            return _compile_and(terms)
        if expr.op == "OR":
            return _compile_or(terms)
        raise ScrubValidationError(f"unknown boolean operator {expr.op!r}")
    if isinstance(expr, AggregateCall):
        raise ScrubValidationError(
            "aggregate calls cannot be evaluated per-row; the central engine "
            "substitutes their computed values"
        )
    raise ScrubValidationError(f"cannot compile node {type(expr).__name__}")


def compile_predicate(expr: Optional[Expr], field_getter: FieldGetter) -> Callable[[Any], bool]:
    """Compile a WHERE predicate; NULL results are treated as 'not true'."""
    if expr is None:
        return lambda row: True
    inner = compile_expr(expr, field_getter)

    def predicate(row: Any) -> bool:
        return inner(row) is True

    return predicate


# -- helpers --------------------------------------------------------------------


def _compile_arith(
    op: str, left: Callable[[Any], Any], right: Callable[[Any], Any]
) -> Callable[[Any], Any]:
    if op == "+":
        def add(row: Any) -> Any:
            a, b = left(row), right(row)
            return None if a is None or b is None else a + b
        return add
    if op == "-":
        def sub(row: Any) -> Any:
            a, b = left(row), right(row)
            return None if a is None or b is None else a - b
        return sub
    if op == "*":
        def mul(row: Any) -> Any:
            a, b = left(row), right(row)
            return None if a is None or b is None else a * b
        return mul
    if op == "/":
        def div(row: Any) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None or b == 0:
                return None
            return a / b
        return div
    if op == "%":
        def mod(row: Any) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None or b == 0:
                return None
            return a % b
        return mod
    raise ScrubValidationError(f"unknown arithmetic operator {op!r}")


def _compile_comparison(expr: Comparison, field_getter: FieldGetter) -> Callable[[Any], Any]:
    left = compile_expr(expr.left, field_getter)
    right = compile_expr(expr.right, field_getter)
    op = expr.op
    if op == "LIKE":
        def like(row: Any) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            return like_to_regex(b).fullmatch(str(a)) is not None
        return like

    if op == "=":
        comparator: Callable[[Any, Any], bool] = lambda a, b: a == b
    elif op == "!=":
        comparator = lambda a, b: a != b
    elif op == "<":
        comparator = lambda a, b: a < b
    elif op == "<=":
        comparator = lambda a, b: a <= b
    elif op == ">":
        comparator = lambda a, b: a > b
    elif op == ">=":
        comparator = lambda a, b: a >= b
    else:
        raise ScrubValidationError(f"unknown comparison operator {op!r}")

    def compare(row: Any) -> Any:
        a, b = left(row), right(row)
        if a is None or b is None:
            return None
        try:
            return comparator(a, b)
        except TypeError:
            # Runtime type mismatch (e.g. dynamically typed object member
            # compared against an int) — NULL rather than query abort.
            return None

    return compare


def _compile_in(expr: InList, field_getter: FieldGetter) -> Callable[[Any], Any]:
    operand = compile_expr(expr.expr, field_getter)
    values = frozenset(v.value for v in expr.values)
    contains_null = any(v.value is None for v in expr.values)
    negated = expr.negated

    def member(row: Any) -> Any:
        value = operand(row)
        if value is None:
            return None
        try:
            hit = value in values
        except TypeError:
            return None
        if not hit and contains_null:
            return None  # SQL: x IN (..., NULL) is UNKNOWN when no match
        return (not hit) if negated else hit

    return member


def _compile_between(expr: Between, field_getter: FieldGetter) -> Callable[[Any], Any]:
    operand = compile_expr(expr.expr, field_getter)
    low = compile_expr(expr.low, field_getter)
    high = compile_expr(expr.high, field_getter)
    negated = expr.negated

    def between(row: Any) -> Any:
        value = operand(row)
        lo, hi = low(row), high(row)
        if value is None or lo is None or hi is None:
            return None
        try:
            hit = lo <= value <= hi
        except TypeError:
            return None
        return (not hit) if negated else hit

    return between


def _compile_and(terms: list[Callable[[Any], Any]]) -> Callable[[Any], Any]:
    def conj(row: Any) -> Any:
        unknown = False
        for term in terms:
            value = term(row)
            if value is False:
                return False
            if value is None:
                unknown = True
        return None if unknown else True

    return conj


def _compile_or(terms: list[Callable[[Any], Any]]) -> Callable[[Any], Any]:
    def disj(row: Any) -> Any:
        unknown = False
        for term in terms:
            value = term(row)
            if value is True:
                return True
            if value is None:
                unknown = True
        return None if unknown else False

    return disj
