"""Recursive-descent parser for the Scrub query language.

Grammar (clauses after FROM may appear in any order)::

    query      := SELECT select_list FROM sources clause* [';']
    clause     := WHERE predicate | target | sampling | span_part
                | WINDOW dur [SLIDE dur] | GROUP BY expr_list
                | HAVING predicate | AGGREGATE ON HOSTS
    select_list:= select_item (',' select_item)*
    select_item:= expr [AS ident]
    sources    := ident (',' ident)*
    target     := '@[' host_expr ']'
    host_expr  := ALL | host_atom (AND host_atom)*
    host_atom  := SERVICE[S] IN ident_or_list
                | SERVERS IN '(' ident_list ')'
                | SERVER '=' ident_or_string
                | DATACENTER '=' ident_or_string
    sampling   := SAMPLE HOSTS number '%' | SAMPLE EVENTS number '%'
    target_ci  := TARGET CI number '%'
    span_part  := START (NOW | number | string) | DURATION dur
"""

from __future__ import annotations

import datetime as _dt
from typing import Optional

from .ast import (
    AggregateCall,
    Between,
    BinaryOp,
    BoolOp,
    Comparison,
    DatacenterEq,
    Expr,
    FieldRef,
    InList,
    IsNull,
    Literal,
    Query,
    SamplingSpec,
    SelectItem,
    ServerEq,
    ServersIn,
    ServiceIn,
    SpanSpec,
    TargetAll,
    TargetAnd,
    TargetCISpec,
    TargetNode,
    UnaryOp,
    child_exprs,
)
from .errors import ScrubSyntaxError
from .lexer import Token, TokenType, parse_duration, tokenize

__all__ = ["parse_query", "parse_expression", "MAX_EXPR_DEPTH"]

#: Deepest an expression may nest, counted two ways that both stop here:
#: syntactically (parentheses, NOT, unary sign and function calls each
#: open a level) and as the depth of the resulting AST (every operator
#: is a level, so an unparenthesised ``a + b + c`` is three deep).  Every
#: recursive walk over an admitted expression — this parser's descent
#: (nine frames per level), the validator, the unparser, the code
#: generator — then stays far inside the interpreter's recursion limit,
#: and generated code stays inside CPython's 100-level indentation limit:
#: its worst case is an AND/OR alternation, one level per nesting, under
#: the host entry's four levels and around a comparison's two.
MAX_EXPR_DEPTH = 64


def parse_query(text: str) -> Query:
    """Parse a full Scrub query string into a :class:`Query` AST."""
    return _Parser(tokenize(text)).parse_query()


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (used in tests and tools)."""
    parser = _Parser(tokenize(text))
    expr = parser._expression()
    parser._expect_end()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._nesting = 0

    # -- token helpers ------------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.type != TokenType.EOF:
            self._pos += 1
        return tok

    def _at_keyword(self, *words: str) -> bool:
        tok = self._cur
        return tok.type == TokenType.KEYWORD and tok.lowered in words

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._at_keyword(*words):
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        tok = self._accept_keyword(word)
        if tok is None:
            raise self._error(f"expected {word.upper()}")
        return tok

    def _accept(self, ttype: str, value: str | None = None) -> Optional[Token]:
        tok = self._cur
        if tok.type == ttype and (value is None or tok.value == value):
            return self._advance()
        return None

    def _expect(self, ttype: str, what: str) -> Token:
        tok = self._accept(ttype)
        if tok is None:
            raise self._error(f"expected {what}")
        return tok

    def _error(self, message: str) -> ScrubSyntaxError:
        tok = self._cur
        found = tok.value or "end of query"
        return ScrubSyntaxError(f"{message}, found {found!r}", tok.line, tok.column)

    def _expect_end(self) -> None:
        self._accept(TokenType.SEMI)
        if self._cur.type != TokenType.EOF:
            raise self._error("unexpected trailing input")

    # -- query --------------------------------------------------------------

    def parse_query(self) -> Query:
        self._expect_keyword("select")
        select_items = self._select_list()
        self._expect_keyword("from")
        sources = self._sources()

        where: Optional[Expr] = None
        target: TargetNode = TargetAll()
        host_rate = 1.0
        event_rate = 1.0
        target_ci: Optional[TargetCISpec] = None
        start: Optional[float] = None
        duration: Optional[float] = None
        window: Optional[float] = None
        slide: Optional[float] = None
        host_aggregate = False
        group_by: tuple[Expr, ...] = ()
        having: Optional[Expr] = None
        seen: set[str] = set()

        def once(name: str) -> None:
            if name in seen:
                raise self._error(f"duplicate {name.upper()} clause")
            seen.add(name)

        while True:
            if self._at_keyword("where"):
                once("where")
                self._advance()
                where = self._expression()
            elif self._cur.type == TokenType.AT_LBRACKET:
                once("target")
                target = self._target()
            elif self._at_keyword("sample"):
                self._advance()
                which = self._advance()
                if which.lowered == "hosts":
                    once("sample hosts")
                    host_rate = self._sampling_rate()
                elif which.lowered == "events":
                    once("sample events")
                    event_rate = self._sampling_rate()
                else:
                    raise self._error("expected HOSTS or EVENTS after SAMPLE")
            elif self._at_keyword("target"):
                once("target ci")
                self._advance()
                self._expect_keyword("ci")
                target_ci = TargetCISpec(relative_error=self._target_ci_rate())
            elif self._at_keyword("start"):
                once("start")
                self._advance()
                start = self._start_value()
            elif self._at_keyword("duration"):
                once("duration")
                self._advance()
                duration = self._duration_value()
            elif self._at_keyword("window"):
                once("window")
                self._advance()
                window = self._duration_value()
                if self._accept_keyword("slide"):
                    slide = self._duration_value()
                    if slide > window:
                        raise self._error("SLIDE must not exceed WINDOW")
            elif self._at_keyword("aggregate"):
                once("aggregate on hosts")
                self._advance()
                self._expect_keyword("on")
                self._expect_keyword("hosts")
                host_aggregate = True
            elif self._at_keyword("group"):
                once("group by")
                self._advance()
                self._expect_keyword("by")
                group_by = tuple(self._expr_list())
            elif self._at_keyword("having"):
                once("having")
                self._advance()
                having = self._expression()
            else:
                break

        self._expect_end()
        try:
            sampling = SamplingSpec(host_rate=host_rate, event_rate=event_rate)
            span = SpanSpec(start=start, duration=duration)
        except ValueError as exc:
            raise ScrubSyntaxError(str(exc)) from None
        return Query(
            select_items=tuple(select_items),
            sources=tuple(sources),
            where=where,
            target=target,
            sampling=sampling,
            span=span,
            target_ci=target_ci,
            window=window,
            slide=slide,
            host_aggregate=host_aggregate,
            group_by=group_by,
            having=having,
        )

    def _select_list(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self._accept(TokenType.COMMA):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        expr = self._expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect(TokenType.IDENT, "alias name").value
        return SelectItem(expr, alias)

    def _sources(self) -> list[str]:
        sources = [self._expect(TokenType.IDENT, "event type name").value]
        while self._accept(TokenType.COMMA):
            sources.append(self._expect(TokenType.IDENT, "event type name").value)
        return sources

    def _sampling_rate(self) -> float:
        tok = self._cur
        if tok.type not in (TokenType.INT, TokenType.FLOAT):
            raise self._error("expected sampling percentage")
        self._advance()
        pct = float(tok.value)
        if self._accept(TokenType.PERCENT_SIGN) is None:
            raise self._error("expected '%' after sampling percentage")
        if not 0.0 < pct <= 100.0:
            raise ScrubSyntaxError(
                f"sampling percentage must be in (0, 100], got {pct:g}", tok.line, tok.column
            )
        return pct / 100.0

    def _target_ci_rate(self) -> float:
        tok = self._cur
        if tok.type not in (TokenType.INT, TokenType.FLOAT):
            raise self._error("expected a percentage after TARGET CI")
        self._advance()
        pct = float(tok.value)
        if self._accept(TokenType.PERCENT_SIGN) is None:
            raise self._error("expected '%' after TARGET CI percentage")
        if not 0.0 < pct < 100.0:
            raise ScrubSyntaxError(
                f"TARGET CI must be in (0, 100), got {pct:g}", tok.line, tok.column
            )
        return pct / 100.0

    def _start_value(self) -> Optional[float]:
        if self._accept_keyword("now"):
            return None
        tok = self._cur
        if tok.type in (TokenType.INT, TokenType.FLOAT):
            self._advance()
            return float(tok.value)
        if tok.type == TokenType.STRING:
            self._advance()
            try:
                return _dt.datetime.fromisoformat(tok.value).timestamp()
            except ValueError:
                raise ScrubSyntaxError(
                    f"bad START datetime {tok.value!r}", tok.line, tok.column
                ) from None
        raise self._error("expected NOW, a timestamp, or an ISO datetime string")

    def _duration_value(self) -> float:
        tok = self._cur
        if tok.type == TokenType.DURATION:
            self._advance()
            return parse_duration(tok.value)
        if tok.type in (TokenType.INT, TokenType.FLOAT):
            # Bare number means seconds.
            self._advance()
            return float(tok.value)
        raise self._error("expected a duration (e.g. 10s, 20m)")

    # -- target -------------------------------------------------------------

    def _target(self) -> TargetNode:
        self._expect(TokenType.AT_LBRACKET, "'@['")
        node = self._host_expr()
        self._expect(TokenType.RBRACKET, "']'")
        return node

    def _host_expr(self) -> TargetNode:
        if self._accept_keyword("all"):
            return TargetAll()
        terms = [self._host_atom()]
        while self._accept_keyword("and"):
            terms.append(self._host_atom())
        if len(terms) == 1:
            return terms[0]
        return TargetAnd(tuple(terms))

    def _host_atom(self) -> TargetNode:
        tok = self._cur
        word = tok.lowered if tok.type == TokenType.KEYWORD else None
        if word in ("service", "services"):
            self._advance()
            self._expect_keyword("in")
            return ServiceIn(tuple(self._name_or_list()))
        if word == "servers":
            self._advance()
            self._expect_keyword("in")
            self._expect(TokenType.LPAREN, "'('")
            hosts = self._name_list()
            self._expect(TokenType.RPAREN, "')'")
            return ServersIn(tuple(hosts))
        if word == "server":
            self._advance()
            self._expect(TokenType.OP, "'='")
            return ServerEq(self._name())
        if word == "datacenter":
            self._advance()
            self._expect(TokenType.OP, "'='")
            return DatacenterEq(self._name())
        raise self._error("expected SERVICE, SERVERS, SERVER, DATACENTER or ALL")

    def _name(self) -> str:
        tok = self._cur
        if tok.type == TokenType.STRING:
            self._advance()
            return tok.value
        # Host names like 'host1' may collide with keywords in odd cases.
        if tok.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self._error("expected a name")
        self._advance()
        parts = [tok.value]
        # Host names commonly contain '-' and '.' (bidservers-dc1-0,
        # host1.example.com); inside a target these are name characters,
        # not operators.
        while True:
            cur = self._cur
            if cur.type == TokenType.OP and cur.value == "-":
                sep = "-"
            elif cur.type == TokenType.DOT:
                sep = "."
            else:
                break
            nxt = self._tokens[self._pos + 1]
            if nxt.type not in (
                TokenType.IDENT, TokenType.KEYWORD, TokenType.INT,
                TokenType.DURATION,
            ):
                break
            self._advance()  # the separator
            self._advance()  # the segment
            parts.append(sep + nxt.value)
        return "".join(parts)

    def _name_list(self) -> list[str]:
        names = [self._name()]
        while self._accept(TokenType.COMMA):
            names.append(self._name())
        return names

    def _name_or_list(self) -> list[str]:
        if self._accept(TokenType.LPAREN):
            names = self._name_list()
            self._expect(TokenType.RPAREN, "')'")
            return names
        return self._name_list()

    # -- expressions ----------------------------------------------------------

    def _expr_list(self) -> list[Expr]:
        exprs = [self._expression()]
        while self._accept(TokenType.COMMA):
            exprs.append(self._expression())
        return exprs

    def _expression(self) -> Expr:
        start = self._cur
        self._descend()
        expr = self._or_expr()
        self._nesting -= 1
        if not self._nesting:
            # Operator chains deepen the tree without nesting the text.
            level, depth = [expr], 1
            while level:
                if depth > MAX_EXPR_DEPTH:
                    raise self._too_deep(start)
                level = [child for node in level for child in child_exprs(node)]
                depth += 1
        return expr

    def _descend(self) -> None:
        self._nesting += 1
        if self._nesting > MAX_EXPR_DEPTH:
            raise self._too_deep(self._cur)

    @staticmethod
    def _too_deep(tok: Token) -> ScrubSyntaxError:
        return ScrubSyntaxError(
            f"expression nests deeper than {MAX_EXPR_DEPTH} levels", tok.line, tok.column
        )

    def _or_expr(self) -> Expr:
        terms = [self._and_expr()]
        while self._accept_keyword("or"):
            terms.append(self._and_expr())
        if len(terms) == 1:
            return terms[0]
        return BoolOp("OR", tuple(terms))

    def _and_expr(self) -> Expr:
        terms = [self._not_expr()]
        while self._accept_keyword("and"):
            terms.append(self._not_expr())
        if len(terms) == 1:
            return terms[0]
        return BoolOp("AND", tuple(terms))

    def _not_expr(self) -> Expr:
        if self._accept_keyword("not"):
            self._descend()
            operand = self._not_expr()
            self._nesting -= 1
            return UnaryOp("NOT", operand)
        return self._predicate()

    def _predicate(self) -> Expr:
        left = self._additive()
        tok = self._cur
        if tok.type == TokenType.OP and tok.value in ("=", "!=", "<", "<=", ">", ">="):
            self._advance()
            right = self._additive()
            return Comparison(tok.value, left, right)
        negated = False
        if self._at_keyword("not"):
            # 'x NOT IN (...)', 'x NOT BETWEEN ... AND ...', 'x NOT LIKE ...'
            nxt = self._tokens[self._pos + 1]
            if nxt.type == TokenType.KEYWORD and nxt.lowered in ("in", "between", "like"):
                self._advance()
                negated = True
            else:
                return left
        if self._accept_keyword("in"):
            self._expect(TokenType.LPAREN, "'('")
            values = [self._literal()]
            while self._accept(TokenType.COMMA):
                values.append(self._literal())
            self._expect(TokenType.RPAREN, "')'")
            return InList(left, tuple(values), negated)
        if self._accept_keyword("between"):
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return Between(left, low, high, negated)
        if self._accept_keyword("like"):
            pattern = self._additive()
            cmp = Comparison("LIKE", left, pattern)
            return UnaryOp("NOT", cmp) if negated else cmp
        if self._accept_keyword("is"):
            is_negated = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return IsNull(left, is_negated)
        if negated:
            raise self._error("expected IN, BETWEEN or LIKE after NOT")
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            tok = self._cur
            if tok.type == TokenType.OP and tok.value in ("+", "-"):
                self._advance()
                left = BinaryOp(tok.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            tok = self._cur
            if tok.type == TokenType.STAR:
                self._advance()
                left = BinaryOp("*", left, self._unary())
            elif tok.type == TokenType.OP and tok.value == "/":
                self._advance()
                left = BinaryOp("/", left, self._unary())
            elif tok.type == TokenType.PERCENT_SIGN:
                self._advance()
                left = BinaryOp("%", left, self._unary())
            else:
                return left

    def _unary(self) -> Expr:
        sign = self._accept(TokenType.OP, "-") or self._accept(TokenType.OP, "+")
        if sign is None:
            return self._primary()
        self._descend()
        operand = self._unary()
        self._nesting -= 1
        return UnaryOp("-", operand) if sign.value == "-" else operand

    def _primary(self) -> Expr:
        tok = self._cur
        if tok.type == TokenType.LPAREN:
            self._advance()
            inner = self._expression()
            self._expect(TokenType.RPAREN, "')'")
            return inner
        if tok.type == TokenType.INT:
            self._advance()
            return Literal(int(tok.value))
        if tok.type == TokenType.FLOAT:
            self._advance()
            return Literal(float(tok.value))
        if tok.type == TokenType.STRING:
            self._advance()
            return Literal(tok.value)
        if tok.type == TokenType.KEYWORD:
            word = tok.lowered
            if word == "true":
                self._advance()
                return Literal(True)
            if word == "false":
                self._advance()
                return Literal(False)
            if word == "null":
                self._advance()
                return Literal(None)
            if word in (
                "count", "sum", "avg", "min", "max", "count_distinct",
                "top", "quantile",
            ):
                return self._aggregate(word)
        if tok.type == TokenType.IDENT:
            return self._field_ref()
        raise self._error("expected an expression")

    def _aggregate(self, word: str) -> Expr:
        self._advance()
        self._expect(TokenType.LPAREN, "'('")
        if word == "count" and self._accept(TokenType.STAR):
            self._expect(TokenType.RPAREN, "')'")
            return AggregateCall("COUNT")
        if word == "top":
            ktok = self._expect(TokenType.INT, "TOP's k (an integer)")
            self._expect(TokenType.COMMA, "','")
            arg = self._expression()
            self._expect(TokenType.RPAREN, "')'")
            k = int(ktok.value)
            if k <= 0:
                raise ScrubSyntaxError("TOP requires a positive k", ktok.line, ktok.column)
            return AggregateCall("TOP", arg, k=k)
        if word == "quantile":
            arg = self._expression()
            self._expect(TokenType.COMMA, "','")
            qtok = self._cur
            if qtok.type not in (TokenType.INT, TokenType.FLOAT):
                raise self._error("expected QUANTILE's q (a number in [0, 1])")
            self._advance()
            q = float(qtok.value)
            if not 0.0 <= q <= 1.0:
                raise ScrubSyntaxError(
                    f"QUANTILE requires q in [0, 1], got {q:g}", qtok.line, qtok.column
                )
            self._expect(TokenType.RPAREN, "')'")
            return AggregateCall("QUANTILE", arg, q=q)
        arg = self._expression()
        self._expect(TokenType.RPAREN, "')'")
        return AggregateCall(word.upper(), arg)

    def _field_ref(self) -> FieldRef:
        first = self._expect(TokenType.IDENT, "field reference").value
        parts = [first]
        while self._accept(TokenType.DOT):
            nxt = self._cur
            if nxt.type in (TokenType.IDENT, TokenType.KEYWORD):
                self._advance()
                parts.append(nxt.value)
            else:
                raise self._error("expected field name after '.'")
        if len(parts) == 1:
            return FieldRef(None, parts[0])
        # 'a.b.c...' — the first part may be an event type or the root of a
        # dotted object path; the validator disambiguates.  We tentatively
        # treat the first part as a qualifier here.
        return FieldRef(parts[0], ".".join(parts[1:]))

    def _literal(self) -> Literal:
        negative = bool(self._accept(TokenType.OP, "-"))
        tok = self._cur
        if tok.type == TokenType.INT:
            self._advance()
            value: object = int(tok.value)
        elif tok.type == TokenType.FLOAT:
            self._advance()
            value = float(tok.value)
        elif tok.type == TokenType.STRING:
            self._advance()
            value = tok.value
        elif tok.type == TokenType.KEYWORD and tok.lowered in ("true", "false", "null"):
            self._advance()
            value = {"true": True, "false": False, "null": None}[tok.lowered]
        else:
            raise self._error("expected a literal")
        if negative:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise self._error("'-' must precede a number")
            value = -value
        return Literal(value)
