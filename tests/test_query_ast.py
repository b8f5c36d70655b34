import pytest

from guidedsql.parser import parse
from guidedsql.query_ast import (
    BoolExpr,
    Literal,
    SelectQuery,
    SetQuery,
    column_signature,
    extract_constants,
    print_query,
    select_nodes,
)
from guidedsql.schema import ColumnId


def test_print_canonical_form(concert_schema):
    ast = parse(
        "select T1.name , COUNT ( * ) from singer T1 join concert T2 on "
        "T1.singer_id=T2.singer_id where T2.year>2014 group by T1.name "
        "order by count(*) desc limit 3",
        concert_schema,
    )
    assert print_query(ast) == (
        "SELECT singer.name, COUNT(*) FROM singer JOIN concert "
        "ON singer.singer_id = concert.singer_id WHERE concert.year > 2014 "
        "GROUP BY singer.name ORDER BY COUNT(*) DESC LIMIT 3"
    )


def test_print_parenthesizes_or_under_and(concert_schema):
    ast = parse(
        "select name from singer where (age < 25 or age > 50) and country = 'US'",
        concert_schema,
    )
    text = print_query(ast)
    assert "(singer.age < 25 OR singer.age > 50)" in text
    assert parse(text, concert_schema) == ast


def test_print_string_literal_escaping(concert_schema):
    ast = parse("select name from singer where name = 'O''Hara'", concert_schema)
    assert ast.where.right.value == "O'Hara"
    assert parse(print_query(ast), concert_schema) == ast


def test_column_signature_is_order_and_alias_invariant(concert_schema):
    a = parse("select name, age from singer", concert_schema)
    b = parse("select s.age, s.name from singer as s", concert_schema)
    assert column_signature(a) == column_signature(b)
    c = parse("select name, country from singer", concert_schema)
    assert column_signature(a) != column_signature(c)


def test_column_signature_tracks_agg_and_distinct(concert_schema):
    a = parse("select count(country) from singer", concert_schema)
    b = parse("select count(distinct country) from singer", concert_schema)
    assert column_signature(a) != column_signature(b)
    assert column_signature(a) == (("count", "singer.country", False),)


def test_extract_constants_includes_subqueries(concert_schema):
    ast = parse(
        "select name from singer where age > 30 and singer_id in "
        "(select singer_id from concert where year = 2015)",
        concert_schema,
    )
    found = set(extract_constants(ast))
    assert found == {
        (ColumnId("singer", "age"), 30, ">"),
        (ColumnId("concert", "year"), 2015, "="),
    }


def test_extract_constants_from_desugared_forms(concert_schema):
    ast = parse(
        "select name from singer where age between 25 and 40 "
        "and country in ('US', 'UK')",
        concert_schema,
    )
    ops = sorted((c.column, v, op) for c, v, op in extract_constants(ast))
    assert ops == [
        ("age", 25, ">="),
        ("age", 40, "<="),
        ("country", "UK", "="),
        ("country", "US", "="),
    ]


def _reference_constants(ast):
    """extract_constants' own tree walk before it became a filter over
    query_ast.walk, kept as the reference the filter must reproduce."""
    found = []

    def walk_predicate(pred):
        if pred is None:
            return
        if isinstance(pred, BoolExpr):
            for arg in pred.args:
                walk_predicate(arg)
            return
        if isinstance(pred.right, (SelectQuery, SetQuery)):
            walk_query(pred.right)
        elif isinstance(pred.right, Literal):
            if isinstance(pred.left.target, ColumnId) and pred.right.value is not None:
                found.append((pred.left.target, pred.right.value, pred.op))

    def walk_query(node):
        if isinstance(node, SetQuery):
            walk_query(node.left)
            walk_query(node.right)
            return
        walk_predicate(node.where)
        walk_predicate(node.having)

    walk_query(ast)
    return found


SUBQUERY_SHAPES = [
    # a subquery between two literal comparisons: its constants come in place
    "select name from singer where age > 30 and singer_id in "
    "(select singer_id from concert where year = 2015) and country = 'US'",
    "select name from singer where age > "
    "(select avg(age) from singer where country = 'UK') or rating < 5.5",
    "select country from singer group by country having count(*) > 2 and max(age) < "
    "(select max(age) from singer where rating > 7)",
    "select name from singer where age < 30 union select name from singer where "
    "singer_id not in (select singer_id from concert where attendance >= 500)",
]


def test_extract_constants_matches_reference_walk(fixtures, concert_schema):
    asts = [parse(sql, schema) for schema, _, sql in fixtures]
    asts += [parse(sql, concert_schema) for sql in SUBQUERY_SHAPES]
    for ast in asts:
        assert extract_constants(ast) == _reference_constants(ast)


@pytest.mark.parametrize("sql", SUBQUERY_SHAPES)
def test_select_nodes_reach_every_subquery(concert_schema, sql):
    ast = parse(sql, concert_schema)
    assert len(select_nodes(ast)) == sql.lower().count("select")
    assert select_nodes(ast)[0] is (ast if isinstance(ast, SelectQuery) else ast.left)
