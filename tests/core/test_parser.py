"""Tests for the query parser, including every query the paper shows."""

import pytest

from repro.core.query import (
    AggregateCall,
    BinaryOp,
    Comparison,
    FieldRef,
    InList,
    Literal,
    ScrubSyntaxError,
    ServerEq,
    ServersIn,
    ServiceIn,
    TargetAll,
    TargetAnd,
    parse_expression,
    parse_query,
)
from repro.core.query.parser import MAX_EXPR_DEPTH


class TestPaperQueries:
    def test_figure_9_spam_query(self):
        q = parse_query(
            "Select bid.user_id, COUNT(*)\n"
            "from bid\n"
            "@[Service in BidServers and Server = host1]\n"
            "group by bid.user_id;"
        )
        assert q.sources == ("bid",)
        assert len(q.select_items) == 2
        assert q.select_items[0].expr == FieldRef("bid", "user_id")
        assert q.select_items[1].expr == AggregateCall("COUNT")
        assert q.group_by == (FieldRef("bid", "user_id"),)
        assert q.target == TargetAnd((ServiceIn(("BidServers",)), ServerEq("host1")))

    def test_figure_13_cpm_query(self):
        q = parse_query(
            "Select 1000*AVG(impression.cost)\n"
            "from impression\n"
            "where impression.line_item_id = 42\n"
            "@[Servers in (host1, host2)];"
        )
        expr = q.select_items[0].expr
        assert expr == BinaryOp(
            "*", Literal(1000), AggregateCall("AVG", FieldRef("impression", "cost"))
        )
        assert q.where == Comparison(
            "=", FieldRef("impression", "line_item_id"), Literal(42)
        )
        assert q.target == ServersIn(("host1", "host2"))

    def test_figure_14_count_query(self):
        q = parse_query(
            "Select COUNT(*) from click "
            "where click.line_item_id = 7 @[Servers in (h1)];"
        )
        assert q.select_items[0].expr == AggregateCall("COUNT")
        assert q.sources == ("click",)

    def test_join_query_shape(self):
        """The 8.4/8.5 join template: two event types in FROM."""
        q = parse_query(
            "Select exclusion.reason, COUNT(*) from bid, exclusion "
            "where bid.exchange_id = 5 group by exclusion.reason;"
        )
        assert q.sources == ("bid", "exclusion")
        assert q.is_join


class TestClauses:
    def test_defaults(self):
        q = parse_query("select COUNT(*) from bid;")
        assert isinstance(q.target, TargetAll)
        assert q.sampling.host_rate == 1.0
        assert q.sampling.event_rate == 1.0
        assert q.window is None
        assert q.span.start is None and q.span.duration is None

    def test_sampling_clauses(self):
        q = parse_query(
            "select COUNT(*) from impression sample hosts 10% sample events 25%;"
        )
        assert q.sampling.host_rate == pytest.approx(0.10)
        assert q.sampling.event_rate == pytest.approx(0.25)

    def test_sampling_requires_percent(self):
        with pytest.raises(ScrubSyntaxError, match="'%'"):
            parse_query("select COUNT(*) from bid sample hosts 10;")

    def test_sampling_range(self):
        with pytest.raises(ScrubSyntaxError, match="percentage"):
            parse_query("select COUNT(*) from bid sample events 150%;")

    def test_span_and_window(self):
        q = parse_query(
            "select COUNT(*) from bid start 100 duration 20m window 10s;"
        )
        assert q.span.start == 100.0
        assert q.span.duration == 1200.0
        assert q.window == 10.0

    def test_start_now(self):
        q = parse_query("select COUNT(*) from bid start now duration 5m;")
        assert q.span.start is None
        assert q.span.duration == 300.0

    def test_start_iso_datetime(self):
        q = parse_query("select COUNT(*) from bid start '2018-04-23T10:00:00';")
        assert q.span.start is not None

    def test_clauses_any_order(self):
        q = parse_query(
            "select COUNT(*) from bid window 5s @[ALL] duration 1m "
            "where bid.x = 1 group by bid.x;"
        )
        assert q.window == 5.0 and q.span.duration == 60.0

    def test_duplicate_clause_rejected(self):
        with pytest.raises(ScrubSyntaxError, match="duplicate"):
            parse_query("select COUNT(*) from bid window 5s window 6s;")

    def test_semicolon_optional(self):
        parse_query("select COUNT(*) from bid")
        parse_query("select COUNT(*) from bid;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ScrubSyntaxError, match="trailing"):
            parse_query("select COUNT(*) from bid; extra")


class TestTargets:
    def test_all(self):
        q = parse_query("select COUNT(*) from bid @[all];")
        assert isinstance(q.target, TargetAll)

    def test_service_list_with_parens(self):
        q = parse_query("select COUNT(*) from bid @[Service in (A, B)];")
        assert q.target == ServiceIn(("A", "B"))

    def test_datacenter(self):
        q = parse_query("select COUNT(*) from bid @[Datacenter = DC1];")
        assert q.target.datacenter == "DC1"

    def test_compound_target(self):
        q = parse_query(
            "select COUNT(*) from bid "
            "@[Service in PresentationServers and Datacenter = 'DC1'];"
        )
        assert isinstance(q.target, TargetAnd)

    def test_bad_target_keyword(self):
        with pytest.raises(ScrubSyntaxError, match="SERVICE"):
            parse_query("select COUNT(*) from bid @[Rack = r1];")


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == BinaryOp("+", Literal(1), BinaryOp("*", Literal(2), Literal(3)))

    def test_parens(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr == BinaryOp("*", BinaryOp("+", Literal(1), Literal(2)), Literal(3))

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 or b = 2 and c = 3")
        assert expr.op == "OR"
        assert expr.terms[1].op == "AND"

    def test_not(self):
        expr = parse_expression("not a = 1")
        assert expr.op == "NOT"

    def test_in_list(self):
        expr = parse_expression("x in (1, 2, 3)")
        assert expr == InList(
            FieldRef(None, "x"), (Literal(1), Literal(2), Literal(3))
        )

    def test_not_in(self):
        expr = parse_expression("x not in (1)")
        assert expr.negated

    def test_between(self):
        expr = parse_expression("x between 1 and 5")
        assert expr.low == Literal(1) and expr.high == Literal(5)

    def test_is_null_and_is_not_null(self):
        assert not parse_expression("x is null").negated
        assert parse_expression("x is not null").negated

    def test_like(self):
        expr = parse_expression("city like 'San%'")
        assert expr.op == "LIKE"

    def test_negative_literal(self):
        assert parse_expression("-5") is not None
        expr = parse_expression("x in (-1, -2.5)")
        assert expr.values == (Literal(-1), Literal(-2.5))

    def test_booleans_and_null_literals(self):
        assert parse_expression("true") == Literal(True)
        assert parse_expression("FALSE") == Literal(False)
        assert parse_expression("null") == Literal(None)

    def test_count_distinct(self):
        expr = parse_expression("COUNT_DISTINCT(user_id)")
        assert expr == AggregateCall("COUNT_DISTINCT", FieldRef(None, "user_id"))

    def test_top_k(self):
        expr = parse_expression("TOP(5, user_id)")
        assert expr == AggregateCall("TOP", FieldRef(None, "user_id"), k=5)

    def test_top_requires_positive_k(self):
        with pytest.raises(ScrubSyntaxError):
            parse_expression("TOP(0, x)")

    def test_dotted_object_path(self):
        expr = parse_expression("bid.meta.device")
        assert expr == FieldRef("bid", "meta.device")

    def test_alias(self):
        q = parse_query("select COUNT(*) as total from bid;")
        assert q.select_items[0].alias == "total"

    def test_missing_select(self):
        with pytest.raises(ScrubSyntaxError, match="SELECT"):
            parse_query("from bid;")

    def test_missing_from(self):
        with pytest.raises(ScrubSyntaxError, match="FROM"):
            parse_query("select COUNT(*);")

    def test_error_carries_position(self):
        with pytest.raises(ScrubSyntaxError, match="line 1"):
            parse_query("select from bid;")


class TestHostNameLexing:
    def test_hyphenated_host_names_in_target(self):
        q = parse_query(
            "select COUNT(*) from bid "
            "@[Servers in (bidservers-dc1-0, bidservers-dc1-1)];"
        )
        assert q.target == ServersIn(("bidservers-dc1-0", "bidservers-dc1-1"))

    def test_dotted_fqdn_in_target(self):
        q = parse_query("select COUNT(*) from bid @[Server = host1.example.com];")
        assert q.target == ServerEq("host1.example.com")

    def test_quoted_host_names_still_work(self):
        q = parse_query("select COUNT(*) from bid @[Servers in ('a-b', 'c.d')];")
        assert q.target == ServersIn(("a-b", "c.d"))


class TestNestingLimit:
    """One constant bounds how deep an expression may nest — the written
    query (parentheses, NOT, signs, calls) and the tree it parses to
    (every operator).  Past it: a syntax error naming the limit and the
    place, where there used to be a RecursionError."""

    D = MAX_EXPR_DEPTH

    #: text(levels) nests exactly *levels* deep.
    SHAPES = {
        "parentheses": lambda n: "(" * (n - 1) + "a" + ")" * (n - 1),
        "not": lambda n: "not " * (n - 1) + "a",
        "unary_minus": lambda n: "- " * (n - 1) + "a",
        "unary_plus": lambda n: "+ " * (n - 1) + "a",
        "sum": lambda n: " + ".join(["a"] * n),
        "product": lambda n: " * ".join(["a"] * n),
        "aggregate_argument": lambda n: "SUM(" + "(" * (n - 2) + "a" + ")" * (n - 2) + ")",
        "and_or": lambda n: "a" + "".join(
            f" {'and' if k % 2 else 'or'} (b" for k in range(n - 1)
        ) + ")" * (n - 1),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_the_limit_parses_one_past_is_a_syntax_error(self, shape):
        text = self.SHAPES[shape]
        parse_expression(text(self.D))
        with pytest.raises(ScrubSyntaxError, match=f"nests deeper than {self.D} levels") as info:
            parse_expression(text(self.D + 1))
        assert info.value.line == 1 and info.value.column >= 1

    @pytest.mark.parametrize("shape", SHAPES)
    def test_far_past_the_limit_is_the_same_error(self, shape):
        """5 000 levels would overflow the interpreter's stack long
        before the parser returned."""
        with pytest.raises(ScrubSyntaxError, match="nests deeper"):
            parse_expression(self.SHAPES[shape](5_000))

    def test_every_clause_of_a_query_is_bounded(self):
        deep = self.SHAPES["parentheses"](self.D + 1)
        for text in (
            f"select {deep} from bid;",
            f"select COUNT(*) from bid where {deep} = 1;",
            f"select COUNT(*) from bid group by {deep};",
            f"select COUNT(*) from bid having {deep} > 1;",
        ):
            with pytest.raises(ScrubSyntaxError, match="nests deeper"):
                parse_query(text)

    def test_width_is_not_depth(self):
        wide = " and ".join(f"a = {i}" for i in range(2_000))
        assert len(parse_expression(wide).terms) == 2_000
