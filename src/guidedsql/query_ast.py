"""AST for the supported SQL subset: representation, printing, derived views.

All identifiers are stored canonically (lower-case, alias-free, fully
qualified), so structural equality of two ASTs is plain dataclass equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .schema import ColumnId

AGGREGATORS = ("none", "count", "sum", "avg", "min", "max")
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=", "like", "in", "not in")
SET_OPS = ("union", "intersect", "except")


@dataclass(frozen=True)
class Star:
    """The '*' column target."""

    def __str__(self) -> str:
        return "*"


STAR = Star()


@dataclass
class Literal:
    value: int | float | str | None
    type: str  # one of schema.COLUMN_TYPES


@dataclass
class ColumnExpr:
    """A (possibly aggregated) column expression: agg(target)."""

    agg: str  # one of AGGREGATORS; "none" means a bare column
    target: ColumnId | Star
    distinct: bool = False


@dataclass
class Comparison:
    left: ColumnExpr
    op: str  # one of COMPARISON_OPS
    right: "Literal | ColumnExpr | SelectQuery | SetQuery"


@dataclass
class BoolExpr:
    op: str  # "and" | "or"
    args: list["Predicate"]


Predicate = Comparison | BoolExpr


@dataclass
class JoinCond:
    """Equi-join condition; columns ordered by FROM position at parse time."""

    left: ColumnId
    right: ColumnId


@dataclass
class OrderItem:
    expr: ColumnExpr
    desc: bool = False


@dataclass
class SelectQuery:
    select: list[ColumnExpr]
    tables: list[str]
    joins: list[JoinCond] = field(default_factory=list)
    where: Predicate | None = None
    group_by: list[ColumnId] = field(default_factory=list)
    having: Predicate | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    select_distinct: bool = False


@dataclass
class SetQuery:
    op: str  # one of SET_OPS
    left: "QueryAst"
    right: "QueryAst"


QueryAst = SelectQuery | SetQuery


def leftmost_select(ast: QueryAst) -> SelectQuery:
    while isinstance(ast, SetQuery):
        ast = ast.left
    return ast


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _print_literal(lit: Literal) -> str:
    v = lit.value
    if v is None:
        return "NULL"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _print_column_expr(expr: ColumnExpr) -> str:
    target = str(expr.target)
    if expr.agg == "none":
        return target
    inner = ("DISTINCT " if expr.distinct else "") + target
    return f"{expr.agg.upper()}({inner})"


def _print_operand(op: "Literal | ColumnExpr | SelectQuery | SetQuery") -> str:
    if isinstance(op, Literal):
        return _print_literal(op)
    if isinstance(op, ColumnExpr):
        return _print_column_expr(op)
    return "(" + print_query(op) + ")"


def _print_predicate(pred: Predicate, parent_op: str | None = None) -> str:
    if isinstance(pred, Comparison):
        return " ".join(
            [_print_column_expr(pred.left), pred.op.upper(), _print_operand(pred.right)]
        )
    joiner = f" {pred.op.upper()} "
    text = joiner.join(_print_predicate(a, pred.op) for a in pred.args)
    # Parenthesize OR under AND so precedence survives reparsing.
    if parent_op == "and" and pred.op == "or":
        return "(" + text + ")"
    return text


def _print_from(query: SelectQuery) -> str:
    parts = [query.tables[0]]
    by_table: dict[int, list[JoinCond]] = {}
    for cond in query.joins:
        idx = max(query.tables.index(cond.left.table), query.tables.index(cond.right.table))
        by_table.setdefault(idx, []).append(cond)
    for idx, table in enumerate(query.tables[1:], start=1):
        part = f"JOIN {table}"
        conds = by_table.get(idx)
        if conds:
            part += " ON " + " AND ".join(f"{c.left} = {c.right}" for c in conds)
        parts.append(part)
    return " ".join(parts)


def print_query(ast: QueryAst) -> str:
    """Render an AST as canonical SQL text; parse(print(a)) == a."""
    if isinstance(ast, SetQuery):
        return f"{print_query(ast.left)} {ast.op.upper()} {print_query(ast.right)}"
    parts = ["SELECT"]
    if ast.select_distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_print_column_expr(e) for e in ast.select))
    parts.append("FROM " + _print_from(ast))
    if ast.where is not None:
        parts.append("WHERE " + _print_predicate(ast.where))
    if ast.group_by:
        parts.append("GROUP BY " + ", ".join(str(c) for c in ast.group_by))
    if ast.having is not None:
        parts.append("HAVING " + _print_predicate(ast.having))
    if ast.order_by:
        items = ", ".join(
            _print_column_expr(o.expr) + (" DESC" if o.desc else " ASC")
            for o in ast.order_by
        )
        parts.append("ORDER BY " + items)
    if ast.limit is not None:
        parts.append(f"LIMIT {ast.limit}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Derived views
# ---------------------------------------------------------------------------

ColumnSignature = tuple[tuple[str, str, bool], ...]


def column_signature(ast: QueryAst) -> ColumnSignature:
    """Multiset of (aggregator, qualified column or '*', distinct) descriptors.

    Invariant to select-item order and to any table aliasing in the source
    text (aliases are already resolved in the AST).
    """
    select = leftmost_select(ast).select
    items = [(e.agg, str(e.target), e.distinct) for e in select]
    return tuple(sorted(items))


def walk(node: QueryAst | Predicate | None) -> Iterator[SelectQuery | BoolExpr | Comparison]:
    """Pre-order over a query: each SELECT, then the AND/OR nodes and
    comparisons of its WHERE and HAVING, where a comparison against a
    subquery is followed by the subquery's walk. Set operations walk left,
    then right."""
    if isinstance(node, SetQuery):
        yield from walk(node.left)
        yield from walk(node.right)
    elif node is not None:
        yield node
        if isinstance(node, SelectQuery):
            children = (node.where, node.having)
        elif isinstance(node, BoolExpr):
            children = node.args
        else:
            children = (node.right,) if isinstance(node.right, (SelectQuery, SetQuery)) else ()
        for child in children:
            yield from walk(child)


def select_nodes(ast: QueryAst) -> list[SelectQuery]:
    return [node for node in walk(ast) if isinstance(node, SelectQuery)]


def all_comparisons(ast: QueryAst) -> list[Comparison]:
    return [node for node in walk(ast) if isinstance(node, Comparison)]


def extract_constants(ast: QueryAst) -> list[tuple[ColumnId, int | float | str, str]]:
    """All (column, literal, op) triples compared in WHERE/HAVING clauses,
    including inside subqueries."""
    return [
        (c.left.target, c.right.value, c.op) for c in all_comparisons(ast)
        if isinstance(c.right, Literal) and isinstance(c.left.target, ColumnId)
        and c.right.value is not None
    ]
