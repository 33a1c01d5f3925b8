"""Property tests for HAVING evaluation and the extended grammar.

Two independent invariants:

* **Evaluator agreement** — the post-aggregation function HAVING runs
  through (``codegen.output_rows``) must implement exactly the SQL
  three-valued logic the row-level paths implement.  We reuse the
  expression/row strategies of ``test_compile_properties`` and check it
  three-way against the reference interpreter and the closure oracle,
  with aggregate-free expressions whose field leaves are GROUP BY keys
  (which is precisely how a grouped HAVING sees them).
  ``test_compile_properties`` adds aggregate results and computed group
  keys as leaves.
* **Round-trips** — queries carrying HAVING clauses, sliding windows
  and QUANTILE aggregates survive parse → unparse → parse unchanged.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import parse_query, unparse
from repro.core.query.ast import FieldRef
from repro.core.query.codegen import compile_expr as generate_expr
from repro.core.query.codegen import output_rows

from .closure_oracle import compile_expr
from .test_compile_properties import (
    FIELDS,
    _getter,
    _outcome,
    evaluate,
    expressions,
    rows,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=expressions, row=rows)
def test_having_evaluator_matches_row_paths(expr, row):
    """Three-way: interpreter == closure oracle == generated, with every
    field a group key."""
    shape = output_rows([FieldRef(None, name) for name in FIELDS], ())
    key = tuple(row.get(name) for name in FIELDS)
    reference = _outcome(lambda: evaluate(expr, row))
    assert _outcome(lambda: compile_expr(expr, _getter)(row)) == reference
    assert _outcome(lambda: generate_expr(expr, shape)(key, [])) == reference


# -- grammar round-trips -------------------------------------------------------

_aggs = st.sampled_from(
    [
        "COUNT(*)",
        "SUM(bid.bid_price)",
        "AVG(bid.bid_price)",
        "QUANTILE(bid.bid_price, 0.5)",
        "QUANTILE(bid.bid_price, 0.99)",
        "COUNT_DISTINCT(bid.user_id)",
    ]
)
_having_preds = st.sampled_from(
    [
        "COUNT(*) >= 10",
        "COUNT(*) > 2 and SUM(bid.bid_price) < 100.0",
        "QUANTILE(bid.bid_price, 0.9) > 5.0",
        "AVG(bid.bid_price) between 1.0 and 9.0",
        "COUNT(*) > 3 or QUANTILE(bid.bid_price, 0.5) <= 2.5",
        "not COUNT(*) < 2",
    ]
)
_windows = st.sampled_from(
    ["", " window 10s", " window 30s slide 10s", " window 1m slide 500ms"]
)


@st.composite
def _having_queries(draw):
    agg = draw(_aggs)
    grouped = draw(st.booleans())
    group = " group by bid.exchange_id" if grouped else ""
    select = f"bid.exchange_id, {agg}" if grouped else agg
    window = draw(_windows)
    having = draw(st.one_of(st.just(""), _having_preds.map(lambda p: f" having {p}")))
    return f"select {select} from bid{window}{group}{having};"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_having_queries())
def test_having_slide_quantile_round_trip(text):
    q1 = parse_query(text)
    q2 = parse_query(unparse(q1))
    assert q1 == q2
    assert unparse(q2) == unparse(q1)
