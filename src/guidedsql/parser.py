"""Recursive-descent parser for the supported SQL subset.

Resolves table aliases and unqualified columns against a Schema, types
literals from the column they are compared with, and desugars BETWEEN and
IN-lists into comparison trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .query_ast import (
    AGGREGATORS,
    STAR,
    BoolExpr,
    ColumnExpr,
    Comparison,
    JoinCond,
    Literal,
    OrderItem,
    Predicate,
    QueryAst,
    SelectQuery,
    SetQuery,
    Star,
)
from .schema import ColumnId, Schema


class ParseError(ValueError):
    """Base class for all parse-stage failures."""


class QuerySyntaxError(ParseError):
    """The text is not a query of the supported subset grammar."""


class ResolutionError(ParseError):
    """A table/column reference or literal type does not fit the schema."""


class UnsupportedFeature(ParseError):
    """Recognizably SQL, but outside the supported subset."""


_KEYWORDS = {
    "select", "distinct", "from", "as", "join", "on", "where", "group", "by",
    "having", "order", "limit", "and", "or", "not", "in", "like", "between",
    "union", "intersect", "except", "asc", "desc", "null", "inner", "left",
    "outer", "is", "all",
}

_UNSUPPORTED_KEYWORDS = {
    "case", "cast", "exists", "with", "over", "insert", "update", "delete",
    "create", "drop", "cross", "natural", "right", "full",
}

_LEX_RE = re.compile(
    r"""
    (\s*)(
        [A-Za-z_][A-Za-z_0-9]*    # name
      | '(?:[^']|'')*'            # string literal; '' is an escaped quote
      | \d+(?:\.\d+)? | \.\d+     # number
      | [<>!]= | <>               # two-character comparison operators
      | \S                        # punctuation or any other character
    )
    """,
    re.VERBOSE,
)

# A lexeme is a name exactly when its first character is one of these.
NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def lex(text: str) -> list[tuple[str, str]]:
    """(whitespace before, lexeme) pairs tiling `text` up to its trailing
    whitespace; never raises. Every module that reads SQL text lexes it here."""
    return _LEX_RE.findall(text)


@dataclass
class _Token:
    kind: str  # "kw", "ident", "num", "str", "op", "punct"
    value: str | int | float


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for _, raw in lex(text):
        if raw == "'":
            raise QuerySyntaxError("unterminated string literal")
        if raw.startswith("'"):
            tokens.append(_Token("str", raw[1:-1].replace("''", "'")))
        elif raw[0].isdecimal() or (raw[0] == "." and len(raw) > 1):
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("num", value))
        elif raw[0] in NAME_START:
            low = raw.lower()
            if low in _KEYWORDS or low in _UNSUPPORTED_KEYWORDS:
                tokens.append(_Token("kw", low))
            else:
                tokens.append(_Token("ident", low))
        elif raw in ("<>", "!=", "<=", ">=", "=", "<", ">"):
            tokens.append(_Token("op", "!=" if raw == "<>" else raw))
        elif raw in ("(", ")", ",", ".", "*", ";", "-"):
            tokens.append(_Token("punct", raw))
        else:
            raise QuerySyntaxError(f"unexpected character {raw!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], schema: Schema):
        self.tokens = tokens
        self.schema = schema
        self.pos = 0

    # -- token stream helpers --

    def peek(self, offset: int = 0) -> _Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of query")
        self.pos += 1
        return tok

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "kw" and tok.value in words

    def take_kw(self, *words: str) -> bool:
        if self.at_kw(*words):
            self.pos += 1
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.take_kw(word):
            raise QuerySyntaxError(f"expected {word.upper()} near token {self.pos}")

    def take_punct(self, value: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.value == value:
            self.pos += 1
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.take_punct(value):
            raise QuerySyntaxError(f"expected {value!r} near token {self.pos}")

    # -- grammar --

    def parse_query(self, depth: int = 0) -> QueryAst:
        ast: QueryAst = self.parse_select(depth)
        while self.at_kw("union", "intersect", "except"):
            op = str(self.next().value)
            if self.take_kw("all"):
                raise UnsupportedFeature("UNION ALL is not supported")
            ast = SetQuery(op, ast, self.parse_select(depth))
        return ast

    def parse_select(self, depth: int) -> SelectQuery:
        tok = self.peek()
        if tok is not None and tok.kind == "kw" and tok.value in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(f"{str(tok.value).upper()} is not supported")
        self.expect_kw("select")
        select_distinct = self.take_kw("distinct")

        # Select items are parsed before FROM, so collect them unresolved.
        raw_items: list[tuple] = [self.parse_raw_column_expr()]
        while self.take_punct(","):
            raw_items.append(self.parse_raw_column_expr())

        self.expect_kw("from")
        tables, aliases, joins_raw = self.parse_from(depth)
        scope = _Scope(self.schema, tables, aliases)

        query = SelectQuery(
            select=[scope.resolve_expr(item) for item in raw_items],
            tables=tables,
            joins=self.resolve_joins(joins_raw, scope, tables),
            select_distinct=select_distinct,
        )
        if self.take_kw("where"):
            query.where = self.parse_predicate(scope, depth)
        if self.take_kw("group"):
            self.expect_kw("by")
            query.group_by.append(self.parse_column_ref(scope))
            while self.take_punct(","):
                query.group_by.append(self.parse_column_ref(scope))
        if self.take_kw("having"):
            query.having = self.parse_predicate(scope, depth)
        if self.take_kw("order"):
            self.expect_kw("by")
            query.order_by.append(self.parse_order_item(scope))
            while self.take_punct(","):
                query.order_by.append(self.parse_order_item(scope))
        if self.take_kw("limit"):
            tok = self.next()
            if tok.kind != "num" or not isinstance(tok.value, int):
                raise QuerySyntaxError("LIMIT expects an integer")
            query.limit = tok.value
        return query

    def parse_from(self, depth: int):
        tables: list[str] = []
        aliases: dict[str, str] = {}
        joins_raw: list[tuple] = []

        def table_ref() -> None:
            tok = self.next()
            if tok.kind == "punct" and tok.value == "(":
                raise UnsupportedFeature("subqueries in FROM are not supported")
            if tok.kind != "ident":
                raise QuerySyntaxError(f"expected table name, got {tok.value!r}")
            name = str(tok.value)
            if not self.schema.has_table(name):
                raise ResolutionError(f"unknown table {name!r}")
            tables.append(name)
            aliases[name] = name
            if self.take_kw("as"):
                alias_tok = self.next()
                if alias_tok.kind != "ident":
                    raise QuerySyntaxError("expected alias after AS")
                aliases[str(alias_tok.value)] = name
            else:
                nxt = self.peek()
                if nxt is not None and nxt.kind == "ident":
                    self.pos += 1
                    aliases[str(nxt.value)] = name

        table_ref()
        while True:
            if self.take_punct(","):
                table_ref()
                continue
            self.take_kw("inner") or (self.take_kw("left") and self.take_kw("outer"))
            if self.take_kw("join"):
                table_ref()
                if self.take_kw("on"):
                    joins_raw.append(self.parse_join_cond())
                    while self.take_kw("and"):
                        joins_raw.append(self.parse_join_cond())
                continue
            break
        return tables, aliases, joins_raw

    def parse_join_cond(self) -> tuple:
        left = self.parse_raw_name()
        tok = self.next()
        if tok.kind != "op" or tok.value != "=":
            raise UnsupportedFeature("only equi-join conditions are supported")
        right = self.parse_raw_name()
        return (left, right)

    def parse_raw_name(self) -> tuple[str | None, str]:
        """A possibly-qualified name, unresolved: (qualifier | None, column)."""
        tok = self.next()
        if tok.kind == "kw" and tok.value in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(f"{str(tok.value).upper()} is not supported")
        if tok.kind != "ident":
            raise QuerySyntaxError(f"expected name, got {tok.value!r}")
        if self.take_punct("."):
            col = self.next()
            if col.kind == "punct" and col.value == "*":
                return (str(tok.value), "*")
            if col.kind != "ident":
                raise QuerySyntaxError("expected column after '.'")
            return (str(tok.value), str(col.value))
        return (None, str(tok.value))

    def parse_raw_column_expr(self) -> tuple:
        """Unresolved (agg, qualifier, column, distinct); column may be '*'."""
        if self.take_punct("*"):
            return ("none", None, "*", False)
        tok = self.peek()
        if (
            tok is not None
            and tok.kind == "ident"
            and tok.value in AGGREGATORS
            and tok.value != "none"
        ):
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == "punct" and nxt.value == "(":
                agg = str(self.next().value)
                self.expect_punct("(")
                distinct = self.take_kw("distinct")
                if self.take_punct("*"):
                    qualifier, column = None, "*"
                else:
                    qualifier, column = self.parse_raw_name()
                self.expect_punct(")")
                return (agg, qualifier, column, distinct)
        qualifier, column = self.parse_raw_name()
        return ("none", qualifier, column, False)

    def parse_column_ref(self, scope: "_Scope") -> ColumnId:
        expr = scope.resolve_expr(self.parse_raw_column_expr())
        if expr.agg != "none" or isinstance(expr.target, Star):
            raise QuerySyntaxError("expected a plain column reference")
        return expr.target

    def parse_order_item(self, scope: "_Scope") -> OrderItem:
        expr = scope.resolve_expr(self.parse_raw_column_expr())
        desc = False
        if self.take_kw("desc"):
            desc = True
        else:
            self.take_kw("asc")
        return OrderItem(expr, desc)

    # -- predicates --

    def parse_predicate(self, scope: "_Scope", depth: int) -> Predicate:
        terms = [self.parse_conjunction(scope, depth)]
        while self.take_kw("or"):
            terms.append(self.parse_conjunction(scope, depth))
        return terms[0] if len(terms) == 1 else BoolExpr("or", terms)

    def parse_conjunction(self, scope: "_Scope", depth: int) -> Predicate:
        factors = [self.parse_factor(scope, depth)]
        while self.take_kw("and"):
            factors.append(self.parse_factor(scope, depth))
        return factors[0] if len(factors) == 1 else BoolExpr("and", factors)

    def parse_factor(self, scope: "_Scope", depth: int) -> Predicate:
        if self.take_punct("("):
            pred = self.parse_predicate(scope, depth)
            self.expect_punct(")")
            return pred
        if self.at_kw("not"):
            raise UnsupportedFeature("bare NOT predicates are not supported")
        return self.parse_comparison(scope, depth)

    def parse_comparison(self, scope: "_Scope", depth: int) -> Predicate:
        left = scope.resolve_expr(self.parse_raw_column_expr())
        negated = self.take_kw("not")
        tok = self.next()

        if tok.kind == "kw" and tok.value == "between":
            low = self.parse_value(scope, left, depth, op="between")
            self.expect_kw("and")
            high = self.parse_value(scope, left, depth, op="between")
            if negated:
                return BoolExpr("or", [Comparison(left, "<", low), Comparison(left, ">", high)])
            return BoolExpr("and", [Comparison(left, ">=", low), Comparison(left, "<=", high)])

        if tok.kind == "kw" and tok.value == "in":
            self.expect_punct("(")
            if self.at_kw("select"):
                return Comparison(left, "not in" if negated else "in", self.parse_subquery(depth))
            values = [self.parse_value(scope, left, depth, op="in")]
            while self.take_punct(","):
                values.append(self.parse_value(scope, left, depth, op="in"))
            self.expect_punct(")")
            if negated:
                cmps: list[Predicate] = [Comparison(left, "!=", v) for v in values]
                return cmps[0] if len(cmps) == 1 else BoolExpr("and", cmps)
            cmps = [Comparison(left, "=", v) for v in values]
            return cmps[0] if len(cmps) == 1 else BoolExpr("or", cmps)

        if tok.kind == "kw" and tok.value == "like":
            if negated:
                raise UnsupportedFeature("NOT LIKE is not supported")
            return Comparison(left, "like", self.parse_value(scope, left, depth, op="like"))

        if negated:
            raise QuerySyntaxError("expected IN or BETWEEN after NOT")
        if tok.kind == "kw" and tok.value == "is":
            raise UnsupportedFeature("IS NULL predicates are not supported")
        if tok.kind != "op":
            raise QuerySyntaxError(f"expected comparison operator, got {tok.value!r}")
        op = str(tok.value)
        return Comparison(left, op, self.parse_value(scope, left, depth, op=op))

    def parse_subquery(self, depth: int) -> QueryAst:
        """The query after an already-open paren, through its closing ')'."""
        if depth >= 1:
            raise UnsupportedFeature("nested subqueries deeper than one level")
        query = self.parse_query(depth + 1)
        self.expect_punct(")")
        return query

    def parse_value(self, scope: "_Scope", left: ColumnExpr, depth: int, op: str):
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("expected a value")
        if tok.kind == "punct" and tok.value == "(":
            self.pos += 1
            if not self.at_kw("select"):
                raise QuerySyntaxError("expected subquery after '('")
            return self.parse_subquery(depth)
        if tok.kind == "ident":
            return scope.resolve_expr(self.parse_raw_column_expr())
        if tok.kind == "kw" and tok.value == "null":
            self.pos += 1
            return Literal(None, _expr_type(left, self.schema))
        negative = False
        if tok.kind == "punct" and tok.value == "-":
            negative = True
            self.pos += 1
            tok = self.peek()
        if tok is None or tok.kind not in ("num", "str"):
            raise QuerySyntaxError("expected a literal value")
        self.pos += 1
        value = tok.value
        if negative:
            value = -value  # type: ignore[operator]
        return _type_literal(value, left, op, self.schema)

    def resolve_joins(self, joins_raw: list[tuple], scope: "_Scope", tables: list[str]) -> list[JoinCond]:
        joins = []
        for raw_left, raw_right in joins_raw:
            left = scope.resolve_name(*raw_left)
            right = scope.resolve_name(*raw_right)
            if tables.index(left.table) > tables.index(right.table):
                left, right = right, left
            joins.append(JoinCond(left, right))
        joins.sort(key=lambda c: tables.index(c.right.table))
        return joins


class _Scope:
    """Alias/table environment of one SELECT."""

    def __init__(self, schema: Schema, tables: list[str], aliases: dict[str, str]):
        self.schema = schema
        self.tables = tables
        self.aliases = aliases

    def resolve_name(self, qualifier: str | None, column: str) -> ColumnId:
        if qualifier is not None:
            table = self.aliases.get(qualifier)
            if table is None:
                raise ResolutionError(f"unknown table or alias {qualifier!r}")
            if not self.schema.has_column(table, column):
                raise ResolutionError(f"unknown column {table}.{column}")
            return ColumnId(table, column)
        for table in self.tables:
            if self.schema.has_column(table, column):
                return ColumnId(table, column)
        raise ResolutionError(f"cannot resolve column {column!r}")

    def resolve_expr(self, raw: tuple) -> ColumnExpr:
        agg, qualifier, column, distinct = raw
        if column == "*":
            if agg not in ("none", "count"):
                raise ResolutionError(f"{agg.upper()}(*) is not a valid aggregate")
            return ColumnExpr(agg, STAR, distinct)
        target = self.resolve_name(qualifier, column)
        if agg in ("sum", "avg") and self.schema.column_type(target) not in (
            "integer",
            "real",
        ):
            raise ResolutionError(f"{agg.upper()} applied to non-numeric column {target}")
        return ColumnExpr(agg, target, distinct)


def _expr_type(expr: ColumnExpr, schema: Schema) -> str:
    if expr.agg == "count":
        return "integer"
    if isinstance(expr.target, Star):
        return "integer"
    base = schema.column_type(expr.target)
    if expr.agg in ("sum", "avg"):
        return "real" if base == "real" or expr.agg == "avg" else "integer"
    return base


def _type_literal(value: int | float | str, left: ColumnExpr, op: str, schema: Schema) -> Literal:
    expected = _expr_type(left, schema)
    if op == "like":
        if not isinstance(value, str):
            raise ResolutionError("LIKE requires a string pattern")
        return Literal(value, "text")
    if expected in ("integer", "real"):
        if isinstance(value, str):
            raise ResolutionError(
                f"string literal {value!r} compared with {expected} column {left.target}"
            )
        if expected == "integer" and isinstance(value, float) and value.is_integer():
            value = int(value)
        return Literal(value, expected)
    if expected == "text":
        if isinstance(value, (int, float)):
            raise ResolutionError(
                f"numeric literal {value!r} compared with text column {left.target}"
            )
        return Literal(value, "text")
    # boolean / time columns accept either representation
    return Literal(value, expected)


def parse(sql_text: str, schema: Schema) -> QueryAst:
    """Parse SQL text of the supported subset into a resolved AST."""
    tokens = tokenize(sql_text)
    while tokens and tokens[-1].kind == "punct" and tokens[-1].value == ";":
        tokens.pop()
    parser = _Parser(tokens, schema)
    ast = parser.parse_query()
    if parser.pos != len(parser.tokens):
        tok = parser.peek()
        raise QuerySyntaxError(f"trailing tokens starting at {tok.value!r}")
    return ast
