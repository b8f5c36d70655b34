import pytest
from hypothesis import given
from hypothesis import strategies as st

from guidedsql.parser import (
    QuerySyntaxError,
    ResolutionError,
    UnsupportedFeature,
    lex,
    parse,
    tokenize,
)
from guidedsql.query_ast import (
    BoolExpr,
    ColumnExpr,
    Comparison,
    Literal,
    SelectQuery,
    SetQuery,
    Star,
    print_query,
)
from guidedsql.schema import ColumnId


def test_alias_resolution(concert_schema):
    ast = parse(
        "select T1.name from singer as T1 join concert as T2 "
        "on T1.singer_id = T2.singer_id",
        concert_schema,
    )
    assert ast.select == [ColumnExpr("none", ColumnId("singer", "name"))]
    assert ast.tables == ["singer", "concert"]
    assert ast.joins[0].left == ColumnId("singer", "singer_id")
    assert ast.joins[0].right == ColumnId("concert", "singer_id")


def test_implicit_alias_without_as(concert_schema):
    a = parse("select t.name from singer t", concert_schema)
    b = parse("select name from singer", concert_schema)
    assert a == b


def test_unqualified_column_resolves_to_first_from_table(concert_schema):
    ast = parse(
        "select year from concert join singer on concert.singer_id = singer.singer_id",
        concert_schema,
    )
    assert ast.select[0].target == ColumnId("concert", "year")


def test_between_desugars_to_bounds(concert_schema):
    ast = parse("select name from singer where age between 25 and 40", concert_schema)
    assert isinstance(ast.where, BoolExpr) and ast.where.op == "and"
    low, high = ast.where.args
    assert (low.op, low.right.value) == (">=", 25)
    assert (high.op, high.right.value) == ("<=", 40)


def test_not_between_desugars_to_disjunction(concert_schema):
    ast = parse("select name from singer where age not between 25 and 40", concert_schema)
    assert isinstance(ast.where, BoolExpr) and ast.where.op == "or"
    assert [c.op for c in ast.where.args] == ["<", ">"]


def test_in_list_desugars_to_disjunction(concert_schema):
    ast = parse("select name from singer where country in ('US', 'UK')", concert_schema)
    assert isinstance(ast.where, BoolExpr) and ast.where.op == "or"
    assert [(c.op, c.right.value) for c in ast.where.args] == [("=", "US"), ("=", "UK")]


def test_not_in_list_desugars_to_conjunction(concert_schema):
    ast = parse("select name from singer where age not in (20, 30)", concert_schema)
    assert isinstance(ast.where, BoolExpr) and ast.where.op == "and"
    assert [(c.op, c.right.value) for c in ast.where.args] == [("!=", 20), ("!=", 30)]


def test_subquery_in(concert_schema):
    ast = parse(
        "select name from singer where singer_id in "
        "(select singer_id from concert where year = 2015)",
        concert_schema,
    )
    assert isinstance(ast.where, Comparison) and ast.where.op == "in"
    assert isinstance(ast.where.right, SelectQuery)
    assert ast.where.right.tables == ["concert"]


def test_subquery_comparison(concert_schema):
    ast = parse(
        "select name from singer where age > (select avg(age) from singer)",
        concert_schema,
    )
    sub = ast.where.right
    assert isinstance(sub, SelectQuery)
    assert sub.select[0].agg == "avg"


def test_nested_subquery_rejected(concert_schema):
    with pytest.raises(UnsupportedFeature):
        parse(
            "select name from singer where singer_id in "
            "(select singer_id from concert where attendance > "
            "(select avg(attendance) from concert))",
            concert_schema,
        )


def test_set_operations(concert_schema):
    ast = parse(
        "select name from singer where age > 40 union "
        "select name from singer where age < 25",
        concert_schema,
    )
    assert isinstance(ast, SetQuery) and ast.op == "union"
    with pytest.raises(UnsupportedFeature):
        parse("select name from singer union all select name from singer", concert_schema)


def test_literal_typing(concert_schema):
    ast = parse("select name from singer where age > 30.0", concert_schema)
    lit = ast.where.right
    assert lit == Literal(30, "integer")
    ast = parse("select name from singer where rating > 7", concert_schema)
    assert ast.where.right == Literal(7, "real")


def test_negative_literal(concert_schema):
    ast = parse("select name from singer where age > -5", concert_schema)
    assert ast.where.right.value == -5


def test_string_vs_number_mismatch(concert_schema):
    with pytest.raises(ResolutionError):
        parse("select name from singer where age > 'thirty'", concert_schema)
    with pytest.raises(ResolutionError):
        parse("select name from singer where country = 3", concert_schema)


def test_like_requires_string(concert_schema):
    ast = parse("select name from singer where name like 'A%'", concert_schema)
    assert ast.where.op == "like"
    with pytest.raises(ResolutionError):
        parse("select name from singer where name like 5", concert_schema)


def test_count_star_and_distinct(concert_schema):
    ast = parse("select count(*), count(distinct country) from singer", concert_schema)
    first, second = ast.select
    assert first.agg == "count" and isinstance(first.target, Star)
    assert second.distinct and second.target == ColumnId("singer", "country")


def test_sum_on_text_rejected(concert_schema):
    with pytest.raises(ResolutionError):
        parse("select sum(name) from singer", concert_schema)


def test_unknown_table_and_column(concert_schema):
    with pytest.raises(ResolutionError):
        parse("select name from performers", concert_schema)
    with pytest.raises(ResolutionError):
        parse("select height from singer", concert_schema)
    with pytest.raises(ResolutionError):
        parse("select t9.name from singer", concert_schema)


def test_syntax_errors(concert_schema):
    for bad in (
        "select from singer",
        "select name singer",
        "name from singer",
        "select name from singer where",
        "select name from singer limit x",
        "select name from singer where age >",
        "select name from singer where country = '",
        "select name from singer where country = 'US",
        "select name from singer where country = 'it''s",
        # trailing tokens inside a subquery, as at the top level
        "select name from singer where singer_id in"
        " (select singer_id from concert where year = 1 2)",
        "select name from singer where singer_id in (select singer_id from concert limit 3 4)",
        "select name from singer where singer_id in"
        " (select singer_id from concert order by year desc 5)",
    ):
        with pytest.raises(QuerySyntaxError):
            parse(bad, concert_schema)


def test_lex_pairs_each_lexeme_with_the_space_before_it():
    assert lex(" a.b>=.5 'it''s'(x)  ") == [
        (" ", "a"), ("", "."), ("", "b"), ("", ">="), ("", ".5"), (" ", "'it''s'"),
        ("", "("), ("", "x"), ("", ")"),
    ]
    assert lex("x = 'open") == [("", "x"), (" ", "="), (" ", "'"), ("", "open")]


@given(st.text())
def test_lex_tiles_the_text_up_to_trailing_space(text):
    pairs = lex(text)
    joined = "".join(space + lexeme for space, lexeme in pairs)
    assert text.startswith(joined) and not text[len(joined):].strip()
    assert all(lexeme and not lexeme[0].isspace() for _, lexeme in pairs)


def test_tokenize_kinds():
    kinds = [(t.kind, t.value) for t in tokenize("SELECT x<>.5, 'a''b' FROM t;")]
    assert kinds == [
        ("kw", "select"), ("ident", "x"), ("op", "!="), ("num", 0.5), ("punct", ","),
        ("str", "a'b"), ("kw", "from"), ("ident", "t"), ("punct", ";"),
    ]
    # '²' is a digit to str.isdigit but no decimal digit, so no number
    for bad in ("select a # b", "select a > ²"):
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            tokenize(bad)


def test_unsupported_features(concert_schema):
    for bad in (
        "select case when age > 5 then 1 end from singer",
        "select name from (select name from singer)",
        "select name from singer where not age > 5",
        "select name from singer where name is null",
        "select name from singer where name not like 'A%'",
        "select name from singer where exists (select 1)",
    ):
        with pytest.raises(UnsupportedFeature):
            parse(bad, concert_schema)


def test_trailing_semicolon_and_tokens(concert_schema):
    parse("select name from singer;", concert_schema)
    with pytest.raises(QuerySyntaxError):
        parse("select name from singer limit 3 offset 1", concert_schema)


def test_or_precedence_survives(concert_schema):
    ast = parse(
        "select name from singer where (age < 25 or age > 50) and country = 'US'",
        concert_schema,
    )
    assert ast.where.op == "and"
    assert ast.where.args[0].op == "or"


def test_join_condition_normalization(concert_schema):
    a = parse(
        "select name from singer join concert on singer.singer_id = concert.singer_id",
        concert_schema,
    )
    b = parse(
        "select name from singer join concert on concert.singer_id = singer.singer_id",
        concert_schema,
    )
    assert a == b


def test_roundtrip_on_fixture_corpus(fixtures):
    for schema, _db, sql in fixtures:
        ast = parse(sql, schema)
        text = print_query(ast)
        assert parse(text, schema) == ast, sql
        # printing is a fixed point
        assert print_query(parse(text, schema)) == text
