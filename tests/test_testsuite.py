import copy
import json
import re
import sqlite3

import numpy as np
import pytest

from guidedsql import testsuite
from guidedsql.executor import (
    DatabaseInstance,
    Denotation,
    QueryExecutor,
    compare,
    has_top_level_order_by,
    normalize_cell,
)
from guidedsql.parser import ResolutionError, parse
from guidedsql.query_ast import (
    BoolExpr,
    ColumnExpr,
    Comparison,
    Literal,
    OrderItem,
    QueryAst,
    SelectQuery,
    Star,
    all_comparisons,
    extract_constants,
    print_query,
    select_nodes,
    walk,
)
from guidedsql.schema import ColumnId, Schema, Table
from guidedsql.testsuite import (
    NeighborSet,
    NoNeighborsPossible,
    SuiteConfig,
    _COMPARISON_SWAPS,
    _WORD_LENGTHS,
    _WORD_LETTERS,
    _edit_texts,
    _fuzzed_unique,
    _hint_pools,
    _inert_neighbors,
    _is_unique_marker,
    build_suite,
    fuzz_database,
    generate_neighbors,
    is_empty_output,
    load_suite,
    save_suite,
    suite_stats,
)

from conftest import DATABASE_SPOILS, FIXTURE_QUERIES, spoil_database


def neighbor_texts(schema, sql, count=200, seed=0):
    return set(generate_neighbors(parse(sql, schema), schema, count, seed).neighbors)


def test_neighbor_catalog_for_comparison_query(concert_schema):
    texts = neighbor_texts(concert_schema, "select name from singer where age > 30")
    # operator swaps
    assert "SELECT singer.name FROM singer WHERE singer.age >= 30" in texts
    assert "SELECT singer.name FROM singer WHERE singer.age < 30" in texts
    # literal nudges and doubling
    assert "SELECT singer.name FROM singer WHERE singer.age > 29" in texts
    assert "SELECT singer.name FROM singer WHERE singer.age > 31" in texts
    assert "SELECT singer.name FROM singer WHERE singer.age > 60" in texts
    # dropped predicate and sibling column swap
    assert "SELECT singer.name FROM singer" in texts
    assert "SELECT singer.name FROM singer WHERE singer.singer_id > 30" in texts
    # no DISTINCT toggle here: name columns are unique by the same marker
    # heuristic the fuzzer uses, so the toggle would never be detectable
    assert "SELECT DISTINCT singer.name FROM singer WHERE singer.age > 30" not in texts
    toggled = neighbor_texts(concert_schema, "select country from singer where age > 30")
    assert ("SELECT DISTINCT singer.country FROM singer WHERE singer.age > 30"
            in toggled)


def test_neighbor_catalog_structural_edits(concert_schema):
    texts = neighbor_texts(
        concert_schema,
        "select venue, year from concert where year > 2014 and attendance > 500 "
        "order by attendance desc limit 1",
    )
    joined = "\n".join(texts)
    assert " OR " in joined  # AND/OR swap
    assert "LIMIT 2" in joined  # limit nudge
    assert "ORDER BY concert.attendance ASC" in joined  # order flip
    # each conjunct can be dropped individually
    assert any("WHERE concert.year > 2014 ORDER" in t for t in texts)
    assert any("WHERE concert.attendance > 500 ORDER" in t for t in texts)


def test_neighbor_aggregate_swaps(concert_schema):
    texts = neighbor_texts(concert_schema, "select avg(age) from singer")
    assert "SELECT SUM(singer.age) FROM singer" in texts
    assert "SELECT MAX(singer.age) FROM singer" in texts
    # COUNT(*) admits no aggregate swap
    star = neighbor_texts(concert_schema, "select count(*) from concert where year > 2014")
    assert not any(t.startswith("SELECT SUM") for t in star)


def test_neighbors_never_equal_gold(concert_schema):
    for sql in (
        "select name from singer where age > 30",
        "select count(*) from concert where year > 2014",
        "select distinct country from singer",
    ):
        gold = parse(sql, concert_schema)
        ns = generate_neighbors(gold, concert_schema, 100, seed=1)
        gold_text = print_query(gold)
        assert gold_text not in ns.neighbors
        assert all(parse(n, concert_schema) != gold for n in ns.neighbors)
        assert len(set(ns.neighbors)) == len(ns.neighbors)


def test_neighbors_seeded_selection_is_deterministic(concert_schema):
    gold = parse("select name from singer where age > 30", concert_schema)
    a = generate_neighbors(gold, concert_schema, 5, seed=42).neighbors
    b = generate_neighbors(gold, concert_schema, 5, seed=42).neighbors
    c = generate_neighbors(gold, concert_schema, 5, seed=43).neighbors
    assert a == b
    assert a != c  # overwhelmingly likely given the catalog size


def _reference_bool_exprs(ast: QueryAst) -> list[BoolExpr]:
    return [node for node in walk(ast) if isinstance(node, BoolExpr)]


def _reference_order_items(ast: QueryAst) -> list[OrderItem]:
    return [item for node in select_nodes(ast) for item in node.order_by]


def _reference_column_exprs(ast: QueryAst) -> list[ColumnExpr]:
    out = []
    for node in walk(ast):
        if isinstance(node, SelectQuery):
            out.extend(node.select)
            out.extend(o.expr for o in node.order_by)
        elif isinstance(node, Comparison):
            out.append(node.left)
    return out


def _reference_edit_variants(gold: QueryAst, schema: Schema) -> list[QueryAst]:
    """The nine-edit catalog as nine clone-and-mutate loops, each finding
    its node again in the clone: kept to pin `_edit_texts`."""
    variants: list[QueryAst] = []

    def fork(mutate) -> None:
        clone = copy.deepcopy(gold)
        if mutate(clone) is not False:
            variants.append(clone)

    # 1. comparison operator swap
    for i, cmp_ in enumerate(all_comparisons(gold)):
        if cmp_.op not in _COMPARISON_SWAPS:
            continue
        for new_op in _COMPARISON_SWAPS:
            if new_op == cmp_.op:
                continue
            def swap(clone, i=i, new_op=new_op):
                all_comparisons(clone)[i].op = new_op
            fork(swap)

    # 2. numeric literal nudged by one or doubled
    for i, cmp_ in enumerate(all_comparisons(gold)):
        if not isinstance(cmp_.right, Literal):
            continue
        value = cmp_.right.value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        for new_value in (value + 1, value - 1, value * 2):
            if new_value == value:
                continue
            def nudge(clone, i=i, new_value=new_value):
                all_comparisons(clone)[i].right.value = new_value
            fork(nudge)

    # 3. aggregator swap (legality preserved)
    for i, expr in enumerate(_reference_column_exprs(gold)):
        if expr.agg == "none":
            continue
        legal = {"count", "min", "max"}
        if isinstance(expr.target, ColumnId) and schema.column_type(expr.target) in (
            "integer",
            "real",
        ):
            legal |= {"sum", "avg"}
        if isinstance(expr.target, Star):
            legal = {"count"}
        for new_agg in sorted(legal - {expr.agg}):
            def reagg(clone, i=i, new_agg=new_agg):
                _reference_column_exprs(clone)[i].agg = new_agg
            fork(reagg)

    # 4. DISTINCT toggles (skipped where uniqueness makes them no-ops; the
    # fuzzer keys uniqueness off the same marker heuristic, so toggles on
    # marker columns would be undetectable by construction)
    for qi, node in enumerate(select_nodes(gold)):
        targets = [e.target for e in node.select]
        provably_noop = len(targets) == 1 and all(
            isinstance(t, ColumnId) and _is_unique_marker(schema, t) for t in targets
        )
        if not provably_noop and all(e.agg == "none" for e in node.select):
            def toggle(clone, qi=qi):
                sel = select_nodes(clone)[qi]
                sel.select_distinct = not sel.select_distinct
            fork(toggle)
    for i, expr in enumerate(_reference_column_exprs(gold)):
        if expr.agg == "count" and isinstance(expr.target, ColumnId):
            if not schema.is_primary_key(expr.target):
                def toggle_agg(clone, i=i):
                    e = _reference_column_exprs(clone)[i]
                    e.distinct = not e.distinct
                fork(toggle_agg)

    # 5. order direction flip
    for i in range(len(_reference_order_items(gold))):
        def flip(clone, i=i):
            item = _reference_order_items(clone)[i]
            item.desc = not item.desc
        fork(flip)

    # 6. LIMIT changed by one
    for qi, node in enumerate(select_nodes(gold)):
        if node.limit is None:
            continue
        for new_limit in (node.limit + 1, node.limit - 1):
            if new_limit < 1:
                continue
            def relimit(clone, qi=qi, new_limit=new_limit):
                select_nodes(clone)[qi].limit = new_limit
            fork(relimit)

    # 7. AND/OR swap
    for i, expr in enumerate(_reference_bool_exprs(gold)):
        def reop(clone, i=i):
            node = _reference_bool_exprs(clone)[i]
            node.op = "or" if node.op == "and" else "and"
        fork(reop)

    # 8. drop one predicate
    for qi, node in enumerate(select_nodes(gold)):
        for clause in ("where", "having"):
            pred = getattr(node, clause)
            if pred is None:
                continue
            if isinstance(pred, Comparison):
                def drop_all(clone, qi=qi, clause=clause):
                    setattr(select_nodes(clone)[qi], clause, None)
                fork(drop_all)
            elif isinstance(pred, BoolExpr):
                for ai in range(len(pred.args)):
                    def drop_one(clone, qi=qi, clause=clause, ai=ai):
                        target = getattr(select_nodes(clone)[qi], clause)
                        del target.args[ai]
                        if len(target.args) == 1:
                            setattr(select_nodes(clone)[qi], clause, target.args[0])
                    fork(drop_one)

    # 9. replace a column with a same-type sibling
    for i, expr in enumerate(_reference_column_exprs(gold)):
        if not isinstance(expr.target, ColumnId):
            continue
        ref = expr.target
        siblings = schema.columns_of_type(ref.table, schema.column_type(ref))
        for sibling in siblings:
            if sibling == ref.column:
                continue
            def recolumn(clone, i=i, sibling=sibling, table=ref.table):
                _reference_column_exprs(clone)[i].target = ColumnId(table, sibling)
            fork(recolumn)

    return variants


# Shapes that, with the fixture corpus, reach every edit of the catalog.
EDIT_SHAPES = [
    "select country, avg(age) from singer group by country "
    "having count(*) > 2 and (max(age) < 60 or min(rating) >= 5.5)",
    "select name from singer where age > "
    "(select avg(age) from singer where country = 'US')",
    "select venue from concert where singer_id in "
    "(select singer_id from singer where age between 20 and 30) "
    "and attendance not in (100, 200)",
    "select name, country from singer where country in ('US', 'UK', 'FR') "
    "order by rating desc, age asc limit 2",
    "select count(country), count(distinct name) from singer where age <= 40",
    "select name from singer where age < 30 union "
    "select name from singer where country = 'UK' order by name limit 1",
    "select distinct country from singer where rating != 7.5",
]


def test_edit_variants_match_the_reference_loops(fixtures, concert_schema):
    cases = [(schema, sql) for schema, _db, sql in fixtures]
    cases += [(concert_schema, sql) for sql in EDIT_SHAPES]
    for schema, sql in cases:
        gold = parse(sql, schema)
        got = sorted(_edit_texts(gold, schema))
        want = sorted(print_query(v) for v in _reference_edit_variants(gold, schema))
        assert got == want, sql
        assert gold == parse(sql, schema)  # no edit reaches back into gold


def _print_failing_at(call: int):
    """`print_query`, raising on its `call`-th call."""
    calls = 0

    def failing(ast):
        nonlocal calls
        calls += 1
        if calls == call:
            raise RuntimeError("print failed")
        return print_query(ast)
    return failing


def test_every_in_place_edit_is_undone(fixtures, concert_schema, monkeypatch):
    cases = [(schema, db, sql) for schema, db, sql in fixtures]
    cases += [(concert_schema, None, sql) for sql in EDIT_SHAPES + NAME_AGE_GOLDS]
    raised = 0
    for schema, original, sql in cases:
        gold = parse(sql, schema)
        before = copy.deepcopy(gold)
        generate_neighbors(gold, schema, 1000)
        inert = _inert_neighbors(gold, schema, original)
        assert gold == before, sql
        # a print that raises partway through the catalog, or through the
        # proved neighbors, still leaves gold as it was
        edits = len(_edit_texts(gold, schema))
        for run, call in ((lambda: generate_neighbors(gold, schema, 1000), 1 + edits // 2),
                          (lambda: _inert_neighbors(gold, schema, original), len(inert))):
            if call < 1:
                continue
            with monkeypatch.context() as m:
                m.setattr(testsuite, "print_query", _print_failing_at(call))
                with pytest.raises(RuntimeError, match="print failed"):
                    run()
            raised += 1
            assert gold == before, sql
    assert raised > len(cases)  # some golds have proved neighbors


def test_neighbor_pool_skips_only_texts_that_fail_to_parse(concert_schema, monkeypatch):
    gold = parse("select name from singer where age > 30", concert_schema)
    pool = testsuite.neighbor_pool(gold, concert_schema)
    dropped = pool[0]

    def parse_failing_on(error):
        def failing(text, schema):
            if text == dropped:
                raise error
            return parse(text, schema)
        return failing

    monkeypatch.setattr(testsuite, "parse", parse_failing_on(ResolutionError("unknown")))
    assert testsuite.neighbor_pool(gold, concert_schema) == pool[1:]
    # any other error is a parser bug, not a neighbor to leave out
    monkeypatch.setattr(testsuite, "parse", parse_failing_on(KeyError("bug")))
    with pytest.raises(KeyError):
        testsuite.neighbor_pool(gold, concert_schema)


def test_no_neighbors_possible():
    schema = Schema(tables=[Table("t", [("k", "integer")])],
                    primary_keys=[ColumnId("t", "k")])
    gold = parse("select k from t", schema)
    with pytest.raises(NoNeighborsPossible):
        generate_neighbors(gold, schema, 5)


def test_fuzz_database_is_valid_and_sized(concert_schema):
    db = fuzz_database(concert_schema, [], row_cap=30, seed=7)
    assert db.validate() == []
    for rows in db.tables.values():
        assert 15 <= len(rows) <= 30
    assert db.seed == 7


def test_fuzz_database_deterministic(concert_schema):
    hints = [(ColumnId("singer", "age"), 30, ">")]
    a = fuzz_database(concert_schema, hints, row_cap=20, seed=5)
    b = fuzz_database(concert_schema, hints, row_cap=20, seed=5)
    assert a.tables == b.tables
    c = fuzz_database(concert_schema, hints, row_cap=20, seed=6)
    assert a.tables != c.tables


def test_fuzz_database_plants_hint_constants(concert_schema):
    hints = [(ColumnId("singer", "age"), 30, ">")]
    all_three = 0
    for seed in range(10):
        db = fuzz_database(concert_schema, hints, row_cap=30, seed=seed)
        ages = set(db.column_values(ColumnId("singer", "age")))
        # the hint pool {29, 30, 31} is near-certain to be touched at all,
        # and usually covered completely
        assert ages & {29, 30, 31}
        all_three += {29, 30, 31} <= ages
    assert all_three >= 5


def test_fuzz_database_unique_name_heuristic(concert_schema):
    db = fuzz_database(concert_schema, [], row_cap=40, seed=3)
    names = [v for v in db.column_values(ColumnId("singer", "name")) if v is not None]
    assert len(names) == len(set(names))


def test_fuzz_database_foreign_keys_reference_parents(concert_schema):
    db = fuzz_database(concert_schema, [], row_cap=25, seed=11)
    parents = set(db.column_values(ColumnId("singer", "singer_id")))
    children = [
        v for v in db.column_values(ColumnId("concert", "singer_id")) if v is not None
    ]
    assert children and set(children) <= parents


@pytest.fixture(scope="module")
def fixtures_by_key(concert_schema, cars_schema, concert_db, cars_db):
    return {"concert": (concert_schema, concert_db), "cars": (cars_schema, cars_db)}


# LIKE patterns, on a text column and on a number column, beside the
# fixture golds' text and number constants
LIKE_GOLDS = {
    "concert": ["select name from singer where name like '%an%'",
                "select name from singer where age like '3%'"],
    "cars": ["select model from cars where model like 'c%'"],
}


# The fuzzer's contract, checked on whole columns: fixed row-count, NULL,
# hint and original-DB shares, the fresh values of each type, unique columns
# and foreign keys.

# one column of every type, none of them unique or a key
ALL_TYPES = Schema(tables=[Table("t", [("n", "integer"), ("r", "real"), ("w", "text"),
                                       ("d", "time"), ("b", "boolean")])])
ALL_TYPE_COLUMNS = [ColumnId("t", c) for c, _ in ALL_TYPES.tables[0].columns]
# values no fresh draw makes, one boolean so that its share shows
ALL_TYPES_ORIGINAL = DatabaseInstance(ALL_TYPES, {"t": [
    (5000, 4096.0, "Zed", "1980-05-05", 1),
    (5001, 4100.0, "Yo", "1981-06-06", None),
]})


def _column_cells(schema, hints, seeds, **kwargs) -> dict[ColumnId, list]:
    """Every cell of each column over fuzzed DBs of `seeds`."""
    cells: dict[ColumnId, list] = {}
    for seed in seeds:
        db = fuzz_database(schema, hints, seed=seed, **kwargs)
        for table in schema.tables:
            for col, _ in table.columns:
                ref = ColumnId(table.name, col)
                cells.setdefault(ref, []).extend(db.column_values(ref))
    return cells


@pytest.fixture(scope="module")
def fuzzed_grid(fixtures_by_key):
    """(args, db): each fixture schema with and without its original DB,
    the fixture golds' constants and LIKE patterns at three hint shares, and
    row caps of 1, 2, 5 and 100."""
    grid = []
    for key, (schema, original_db) in fixtures_by_key.items():
        golds = [sql for k, sql in FIXTURE_QUERIES if k == key] + LIKE_GOLDS[key]
        hints = [h for sql in golds for h in extract_constants(parse(sql, schema))]
        for original in (None, original_db):
            for hint_prob in (0.0, 0.3, 1.0):
                for row_cap in (1, 2, 5, 100):
                    for seed in range(20):
                        args = (schema, hints, row_cap, seed, original, hint_prob)
                        grid.append((args, fuzz_database(*args)))
    return grid


def test_fuzzed_tables_take_every_row_count_from_half_the_cap_to_the_cap(fuzzed_grid):
    counts: dict[int, set[int]] = {}
    for (schema, _hints, row_cap, *_), db in fuzzed_grid:
        for rows in db.tables.values():
            counts.setdefault(row_cap, set()).add(len(rows))
    assert counts.pop(100) <= set(range(50, 101))
    assert counts == {1: {1}, 2: {1, 2}, 5: {2, 3, 4, 5}}


def test_fuzzed_databases_depend_on_the_seed_alone(fuzzed_grid):
    for args, db in fuzzed_grid[::7]:
        assert fuzz_database(*args).tables == db.tables, args
    assert len({json.dumps(db.tables, sort_keys=True) for _args, db in fuzzed_grid
                if _args[2] == 100}) == sum(args[2] == 100 for args, _db in fuzzed_grid)


def test_fuzzed_unique_and_foreign_key_columns(fuzzed_grid):
    for (schema, _hints, _cap, _seed, original, _p), db in fuzzed_grid:
        con = sqlite3.connect(":memory:")
        try:
            db._fill(con)
            for table in schema.tables:
                for col, _ in table.columns:
                    ref = ColumnId(table.name, col)
                    values = db.column_values(ref)
                    parent = schema.parent_of(ref)
                    if parent is not None:
                        # the parents here are primary keys, so never NULL
                        assert None not in values
                        assert set(values) <= set(db.column_values(parent)), ref
                    if _fuzzed_unique(schema, ref, original):
                        # duplicate-free as SQLite stores them
                        count, distinct = con.execute(
                            f'SELECT COUNT("{col}"), COUNT(DISTINCT "{col}") '
                            f'FROM "{table.name}"').fetchone()
                        assert count == distinct == len(values), ref
        finally:
            con.close()


def test_fuzzed_reals_are_float16(fuzzed_grid):
    reals = 0
    for (schema, *_), db in fuzzed_grid:
        for table in schema.tables:
            for col, ctype in table.columns:
                if ctype == "real":
                    for v in db.column_values(ColumnId(table.name, col)):
                        if v is not None:
                            reals += 1
                            assert isinstance(v, float) and float(np.float16(v)) == v, v
    assert reals > 1000


def test_fuzzed_null_share_is_three_percent():
    cells = _column_cells(ALL_TYPES, [], range(100))
    for ref, values in cells.items():
        assert 0.02 < values.count(None) / len(values) < 0.04, ref


@pytest.mark.parametrize("hint_prob", [0.0, 0.3, 1.0])
def test_fuzzed_hint_share_is_hint_prob(hint_prob):
    hints = [(ColumnId("t", "n"), 500, ">"), (ColumnId("t", "r"), 7.5, "<"),
             (ColumnId("t", "w"), "Zed", "=")]
    pools = {ref: set(pool) for ref, pool in _hint_pools(hints).items()}
    assert pools[ColumnId("t", "n")] == {499, 500, 501}
    cells = _column_cells(ALL_TYPES, hints, range(100), hint_prob=hint_prob)
    for ref, pool in pools.items():
        values = cells[ref]
        hinted = [v for v in values if v in pool]
        assert abs(len(hinted) / len(values) - hint_prob) < 0.02, ref
        if hint_prob == 1.0:  # a hinted cell is never NULL; each hint is as likely
            assert len(hinted) == len(values)
            for hint in pool:
                assert abs(hinted.count(hint) / len(hinted) - 1 / len(pool)) < 0.03, hint


def test_fuzzed_columns_take_their_types_share_of_the_original_db():
    shares = {"integer": 0.6, "real": 0.6, "text": 0.6, "time": 0.5, "boolean": 1.0}
    cells = _column_cells(ALL_TYPES, [], range(100), original=ALL_TYPES_ORIGINAL)
    for ref in ALL_TYPE_COLUMNS:
        pool = [v for v in ALL_TYPES_ORIGINAL.column_values(ref) if v is not None]
        values = [v for v in cells[ref] if v is not None]
        drawn = [v for v in values if v in pool]
        assert abs(len(drawn) / len(values) - shares[ALL_TYPES.column_type(ref)]) < 0.025, ref
        for v in pool:  # each original value as likely
            assert abs(drawn.count(v) / len(drawn) - 1 / len(pool)) < 0.03, (ref, v)


def test_fresh_values_fill_each_types_range():
    cells = {ref: [v for v in values if v is not None]
             for ref, values in _column_cells(ALL_TYPES, [], range(100)).items()}
    n, r, w, d, b = (cells[ref] for ref in ALL_TYPE_COLUMNS)
    assert (min(n), max(n)) == (-100, 1000)
    assert -100 <= min(r) < -99 and 999 < max(r) <= 1000  # float16 rounds up to 1000
    assert {len(v) for v in w} == set(_WORD_LENGTHS)
    assert set("".join(w)) == set(_WORD_LETTERS)
    assert all(re.fullmatch(r"\d{4}-\d\d-\d\d", v) for v in d)
    years, months, days = ({int(v.split("-")[i]) for v in d} for i in range(3))
    assert (years, months, days) == (set(range(1990, 2031)), set(range(1, 13)),
                                     set(range(1, 29)))
    assert set(b) == {0, 1}


def test_fuzzed_unique_columns_take_their_hints_first(concert_schema, concert_db):
    hints = [(ColumnId("singer", "singer_id"), 3, "="), (ColumnId("singer", "name"), "Ann", "=")]
    for original in (None, concert_db):
        for seed in range(20):
            for row_cap in (1, 2, 30):
                db = fuzz_database(concert_schema, hints, row_cap, seed, original)
                ids = db.column_values(ColumnId("singer", "singer_id"))
                # the pool [3, 4, 2], in its order, before any draw
                assert set([3, 4, 2][:len(ids)]) <= set(ids) and len(set(ids)) == len(ids)
                assert "Ann" in db.column_values(ColumnId("singer", "name"))


def test_unique_columns_with_no_repair_skip_a_repeated_draw():
    # dates and booleans have no collision repair; two booleans cut the table
    schema = Schema(tables=[Table("u", [("day_id", "time"), ("flag_id", "boolean")])])
    for seed in range(10):
        db = fuzz_database(schema, [], row_cap=30, seed=seed)
        assert sorted(db.column_values(ColumnId("u", "flag_id"))) == [0, 1]
        days = db.column_values(ColumnId("u", "day_id"))
        assert len(set(days)) == len(days) == 2


def test_foreign_key_children_are_null_where_the_parent_has_no_values():
    schema = Schema(tables=[Table("staff", [("staff_key", "integer"), ("boss", "integer")])],
                    foreign_keys=[(ColumnId("staff", "boss"), ColumnId("staff", "staff_key"))])
    for seed in range(10):
        db = fuzz_database(schema, [], row_cap=20, seed=seed)
        # a table's own columns are drawn after it, so `boss` has no parent values
        assert db.column_values(ColumnId("staff", "boss")) == [None] * len(db.tables["staff"])
        assert any(v is not None for v in db.column_values(ColumnId("staff", "staff_key")))


def test_number_column_with_text_in_the_original_db_is_not_filled_distinct():
    # '7' is a distinct Python value from 7, yet SQLite stores it in an
    # INTEGER column as 7, which a fuzzed DB can then hold twice
    schema = Schema(tables=[Table("t", [("phone", "integer"), ("age", "integer")])])
    original = DatabaseInstance(schema, {"t": [(7, 30), ("7", 40), (8, 50)]})
    gold = parse("select phone, age from t", schema)
    toggle = "SELECT DISTINCT t.phone, t.age FROM t"
    assert toggle in generate_neighbors(gold, schema, 100).neighbors
    assert toggle not in _inert_neighbors(gold, schema, original)
    told_apart = 0
    for seed in range(20):
        con = sqlite3.connect(":memory:")
        try:
            fuzz_database(schema, [], seed=seed, original=original)._fill(con)
            told_apart += not compare(_run_in_process(con, toggle),
                                      _run_in_process(con, print_query(gold)))
        finally:
            con.close()
    assert told_apart


# The benchmark's name/age shape with each country it draws: its DISTINCT
# toggle, and `<=` on 'FR', spun through every fuzz attempt before
# `_inert_neighbors`.
NAME_AGE_GOLDS = [f"select name, age from singer where country = '{c}'"
                  for c in ("US", "UK", "FR")]
# 'usa' sorts above every maker country the fuzzer draws
MAKER_USA_GOLD = ("select model from cars where maker_id in "
                  "(select maker_id from makers where country = 'usa')")
# a duplicate-free number column: the integer primary key
SINGER_ID_GOLD = "select singer_id, age from singer where age > 30"


def _inert_cases(fixtures, concert_schema, concert_db, cars_schema, cars_db):
    """(schema, original db, gold SQL): the fixture corpus, the name/age golds
    it lacks, the 'usa' gold and the primary-key gold."""
    cases = list(fixtures)
    cases += [(concert_schema, concert_db, sql) for sql in NAME_AGE_GOLDS
              if sql not in {c[2] for c in fixtures}]
    cases.append((cars_schema, cars_db, MAKER_USA_GOLD))
    cases.append((concert_schema, concert_db, SINGER_ID_GOLD))
    return cases


def _run_in_process(con: sqlite3.Connection, sql: str) -> Denotation:
    cur = con.execute(sql)
    rows = [tuple(normalize_cell(c) for c in row) for row in cur.fetchall()]
    return Denotation(len(cur.description), rows, ordered=has_top_level_order_by(sql))


def _is_random_word(value: str) -> bool:
    return len(value) in _WORD_LENGTHS and set(value) <= set(_WORD_LETTERS)


def test_inert_neighbors_equal_gold_on_fuzzed_databases(
        fixtures, concert_schema, concert_db, cars_schema, cars_db):
    proved = {}
    for schema, original, sql in _inert_cases(
            fixtures, concert_schema, concert_db, cars_schema, cars_db):
        gold = parse(sql, schema)
        inert = _inert_neighbors(gold, schema, original)
        assert inert <= set(generate_neighbors(gold, schema, 1000).neighbors), sql
        if not inert:
            continue
        proved[sql] = inert
        gold_text = print_query(gold)
        hints = _hint_pools(extract_constants(gold))
        text_columns = [ColumnId(t.name, c) for t in schema.tables
                        for c, ctype in t.columns if ctype == "text"]
        allowed = {  # besides random words, per text column the proof reads
            ref: {str(v) for v in hints.get(ref, [])}
            | {str(v) for v in original.column_values(ref) if v is not None}
            for ref in text_columns
            if schema.parent_of(ref) is None and not _fuzzed_unique(schema, ref, original)}
        for seed in range(200):
            db = fuzz_database(schema, extract_constants(gold), seed=seed, original=original)
            for ref, values in allowed.items():
                for value in db.column_values(ref):
                    assert value is None or value in values or _is_random_word(value), (
                        ref, value)
            con = sqlite3.connect(":memory:")
            try:
                db._fill(con)
                want = _run_in_process(con, gold_text)
                for text in inert:
                    assert compare(_run_in_process(con, text), want), (text, seed)
            finally:
                con.close()
    # the proofs the benchmark's spinning neighbors need
    assert proved == {
        NAME_AGE_GOLDS[0]: {"SELECT DISTINCT singer.name, singer.age FROM singer "
                            "WHERE singer.country = 'US'"},
        NAME_AGE_GOLDS[1]: {"SELECT DISTINCT singer.name, singer.age FROM singer "
                            "WHERE singer.country = 'UK'"},
        NAME_AGE_GOLDS[2]: {"SELECT DISTINCT singer.name, singer.age FROM singer "
                            "WHERE singer.country = 'FR'",
                            "SELECT singer.name, singer.age FROM singer "
                            "WHERE singer.country <= 'FR'"},
        MAKER_USA_GOLD: {"SELECT cars.model FROM cars WHERE cars.maker_id IN "
                         "(SELECT makers.maker_id FROM makers WHERE makers.country >= 'usa')"},
        SINGER_ID_GOLD: {"SELECT DISTINCT singer.singer_id, singer.age FROM singer "
                         "WHERE singer.age > 30"},
    }


def test_inert_neighbors_leave_out_what_a_fuzzed_database_can_tell_apart(
        concert_schema, concert_db):
    repeated_names = DatabaseInstance(concert_schema, {
        "singer": [(1, "Ann", 32, "US", 8.5), (2, "Ann", 24, "UK", 6.0)],
        "concert": [],
    })
    cases = [
        # SQLite applies DISTINCT before the sort, so LIMIT can keep other rows
        (concert_db, "select venue, year from concert order by attendance desc limit 1",
         "SELECT DISTINCT concert.venue, concert.year FROM concert "
         "ORDER BY concert.attendance DESC LIMIT 1"),
        (concert_db, "select name, age from singer order by age desc limit 1",
         "SELECT DISTINCT singer.name, singer.age FROM singer "
         "ORDER BY singer.age DESC LIMIT 1"),
        # a join repeats a singer once per concert
        (concert_db, "select t1.name, t2.year from singer as t1 join concert as t2 "
                     "on t1.singer_id = t2.singer_id",
         "SELECT DISTINCT singer.name, concert.year FROM singer "
         "JOIN concert ON singer.singer_id = concert.singer_id"),
        # a foreign-key child draws repeats from its parent's keys
        (None, "select singer_id, year from concert",
         "SELECT DISTINCT concert.singer_id, concert.year FROM concert"),
        # a LIKE pattern in a number column stores as a number another row holds
        (concert_db, "select singer_id, age from singer where singer_id like '5'",
         "SELECT DISTINCT singer.singer_id, singer.age FROM singer "
         "WHERE singer.singer_id LIKE '5'"),
        # a marker column whose original values repeat is fuzzed with repeats
        (repeated_names, "select name, age from singer",
         "SELECT DISTINCT singer.name, singer.age FROM singer"),
        # 'FR' lies below 'UK'
        (concert_db, "select name, age from singer where country = 'UK'",
         "SELECT singer.name, singer.age FROM singer WHERE singer.country <= 'UK'"),
        # `_random_word` draws words below and above 'abc'
        (None, "select name, age from singer where country = 'abc'",
         "SELECT singer.name, singer.age FROM singer WHERE singer.country <= 'abc'"),
        (None, "select name, age from singer where country = 'abc'",
         "SELECT singer.name, singer.age FROM singer WHERE singer.country >= 'abc'"),
    ]
    for original, sql, neighbor in cases:
        gold = parse(sql, concert_schema)
        assert neighbor in generate_neighbors(gold, concert_schema, 1000).neighbors, sql
        assert neighbor not in _inert_neighbors(gold, concert_schema, original), sql


def test_inert_neighbors_leave_suites_unchanged(
        fixtures, concert_schema, concert_db, cars_schema, cars_db, executor, monkeypatch):
    config = SuiteConfig(max_dbs=5, max_attempts=60, nonempty_attempts=20, row_cap=30,
                         seed=3, time_limit=5.0)
    for i, (schema, original, sql) in enumerate(_inert_cases(
            fixtures, concert_schema, concert_db, cars_schema, cars_db)):
        gold = parse(sql, schema)
        neighbors = generate_neighbors(gold, schema, 12, seed=i)
        suite = build_suite(gold, neighbors, schema, config, executor, original=original)
        with monkeypatch.context() as m:
            m.setattr(testsuite, "_inert_neighbors", lambda *args: set())
            reference = build_suite(gold, neighbors, schema, config, executor,
                                    original=original)
        assert ([db.tables for db in suite.databases]
                == [db.tables for db in reference.databases]), sql
        assert suite.gold_denotations == reference.gold_denotations, sql
        assert suite.distinguished == reference.distinguished, sql
        assert suite.nonempty_found == reference.nonempty_found, sql


def test_name_age_suites_stop_fuzzing_at_the_cli_defaults(
        concert_schema, concert_db, executor, monkeypatch):
    calls = []
    fuzz = testsuite.fuzz_database
    monkeypatch.setattr(testsuite, "fuzz_database",
                        lambda *args, **kwargs: calls.append(1) or fuzz(*args, **kwargs))
    config = SuiteConfig(max_attempts=500)
    for sql in NAME_AGE_GOLDS:
        gold = parse(sql, concert_schema)
        neighbors = generate_neighbors(gold, concert_schema, 40, seed=0)
        calls.clear()
        build_suite(gold, neighbors, concert_schema, config, executor, original=concert_db)
        assert len(calls) < 50, sql  # all 500 while a DISTINCT toggle was fuzzed for


def test_build_suite_distinguishes_and_caches(concert_schema, concert_db, executor):
    gold = parse("select name from singer where age > 30", concert_schema)
    neighbors = generate_neighbors(gold, concert_schema, 10, seed=0)
    config = SuiteConfig(max_dbs=4, max_attempts=80, nonempty_attempts=30,
                         row_cap=24, seed=1)
    suite = build_suite(gold, neighbors, concert_schema, config, executor,
                        original=concert_db, query_id="q7")
    assert suite.nonempty_found
    assert 1 <= len(suite.databases) <= 4
    assert len(suite.gold_denotations) == len(suite.databases)
    for i, db in enumerate(suite.databases):
        out = executor.execute(suite.gold_query, db)
        assert out.ok
        from guidedsql.executor import compare
        assert compare(out.denotation, suite.gold_denotations[i])
    distinguished = {i for ids in suite.distinguished.values() for i in ids}
    assert len(distinguished) >= 8  # nearly every neighbor separated


def test_is_empty_output(concert_schema):
    plain = parse("select name from singer", concert_schema)
    agg = parse("select count(*) from singer", concert_schema)
    assert is_empty_output(Denotation(1, []), plain)
    assert not is_empty_output(Denotation(1, [("Ann",)]), plain)
    assert is_empty_output(Denotation(1, [(0,)]), agg)
    assert is_empty_output(Denotation(1, [(None,)]), agg)
    assert not is_empty_output(Denotation(1, [(3,)]), agg)
    # COUNT(...) = 1 is output, not the empty relation's zero
    assert not is_empty_output(Denotation(1, [(1,)]), agg)


def test_build_suite_deterministic(concert_schema, concert_db, executor):
    gold = parse("select venue from concert where attendance > 500", concert_schema)
    neighbors = generate_neighbors(gold, concert_schema, 8, seed=0)
    config = SuiteConfig(max_dbs=3, max_attempts=40, nonempty_attempts=20,
                         row_cap=20, seed=2)
    a = build_suite(gold, neighbors, concert_schema, config, executor,
                    original=concert_db)
    b = build_suite(gold, neighbors, concert_schema, config, executor,
                    original=concert_db)
    assert [db.tables for db in a.databases] == [db.tables for db in b.databases]
    assert a.distinguished == b.distinguished


def _reference_suite(gold, neighbors, schema, config, executor, original):
    """`build_suite` as it ran with one worker trip per query: gold through
    `execute`, then one one-candidate `first_passing` per remaining neighbor.
    Returns (databases, gold denotations, distinguished, nonempty_found)."""
    gold_text = print_query(gold)
    texts = neighbors.neighbors
    dbs, golds, distinguished = [], [], {}
    remaining = set(range(len(texts)))
    nonempty_found = False
    attempt = 0

    def qualify(require_nonempty):
        nonlocal attempt, nonempty_found
        attempt += 1
        db = fuzz_database(schema, extract_constants(gold), row_cap=config.row_cap,
                           seed=config.seed * 1_000_003 + attempt, original=original,
                           hint_prob=config.hint_prob)
        out = executor.execute(gold_text, db, config.time_limit)
        if not out.ok:
            return False
        nonempty = not is_empty_output(out.denotation, gold)
        if require_nonempty and not nonempty:
            return False
        tests = [(db, out.denotation)]
        newly = [i for i in sorted(remaining)
                 if executor.first_passing([texts[i]], gold_text, tests, config.time_limit) != 0]
        if not (require_nonempty or newly):
            return False
        distinguished[len(dbs)] = newly
        dbs.append(db)
        golds.append(out.denotation)
        remaining.difference_update(newly)
        nonempty_found |= nonempty
        return True

    for _ in range(config.nonempty_attempts):
        if qualify(True):
            break
    while remaining and len(dbs) < config.max_dbs and attempt < config.max_attempts:
        qualify(False)
    return dbs, golds, distinguished, nonempty_found


def test_build_suite_and_stats_match_the_per_query_reference(fixtures, concert_schema,
                                                            concert_db, executor):
    config = SuiteConfig(max_dbs=3, max_attempts=12, nonempty_attempts=6, row_cap=12,
                         seed=3, time_limit=5.0)
    # a gold whose output is empty on phase 1's first fuzzed DB, which only
    # build_suite's own check of gold's output rejects
    having = "select singer.name from singer group by singer.name having count(*) > 1"
    gold = parse(having, concert_schema)
    first_db = fuzz_database(concert_schema, extract_constants(gold), row_cap=config.row_cap,
                             seed=config.seed * 1_000_003 + 1, original=concert_db,
                             hint_prob=config.hint_prob)
    assert is_empty_output(executor.execute(having, first_db).denotation, gold)
    suites, heldout_sets, covered = [], [], 0
    for i, (schema, original, sql) in enumerate([*fixtures, (concert_schema, concert_db, having)]):
        gold = parse(sql, schema)
        neighbors = generate_neighbors(gold, schema, 8, seed=i)
        suite = build_suite(gold, neighbors, schema, config, executor, original=original)
        dbs, golds, distinguished, nonempty_found = _reference_suite(
            gold, neighbors, schema, config, executor, original)
        assert [db.tables for db in suite.databases] == [db.tables for db in dbs], sql
        assert suite.gold_denotations == golds, sql
        assert suite.distinguished == distinguished, sql
        assert suite.nonempty_found == nonempty_found, sql
        pool = generate_neighbors(gold, schema, 40, seed=i + 1000)
        taken = set(neighbors.neighbors)
        heldout = NeighborSet([t for t in pool.neighbors if t not in taken][:6])
        tests = list(zip(dbs, golds))
        covered += sum(executor.first_passing([text], suite.gold_query, tests, 5.0) != 0
                       for text in heldout.neighbors)
        suites.append(suite)
        heldout_sets.append(heldout)
    stats = suite_stats(suites, heldout_sets, executor, 5.0)
    total = sum(len(h.neighbors) for h in heldout_sets)
    assert 0 < covered < total  # the check sees both outcomes
    assert stats.cover_pct == 100.0 * covered / total


def test_build_suite_writes_no_database_file(concert_schema, concert_db, executor,
                                             monkeypatch, tmp_path):
    written = []
    to_sqlite = DatabaseInstance.to_sqlite
    monkeypatch.setattr(DatabaseInstance, "to_sqlite",
                        lambda db, path: written.append(path) or to_sqlite(db, path))
    gold = parse("select name from singer where age > 30", concert_schema)
    neighbors = generate_neighbors(gold, concert_schema, 8, seed=0)
    config = SuiteConfig(max_dbs=3, max_attempts=40, nonempty_attempts=20,
                         row_cap=20, seed=4)
    suite = build_suite(gold, neighbors, concert_schema, config, executor,
                        original=concert_db, query_id="q9")
    assert suite.databases and written == []
    out = save_suite(suite, tmp_path)
    files = [out / f"db_{i:03d}.sqlite" for i in range(len(suite.databases))]
    assert suite.size_bytes() == sum(f.stat().st_size for f in files)
    # each kept database once, by save_suite, into the sibling directory that
    # then took the suite's place; the databases read the final files
    assert [(p.parent.parent, p.name) for p in written] == [(tmp_path, f.name) for f in files]
    assert [db.materialize() for db in suite.databases] == files


def test_save_load_roundtrip(concert_schema, concert_db, executor, tmp_path):
    gold = parse("select name from singer where age > 30", concert_schema)
    neighbors = generate_neighbors(gold, concert_schema, 6, seed=0)
    config = SuiteConfig(max_dbs=3, max_attempts=40, nonempty_attempts=20,
                         row_cap=20, seed=4)
    suite = build_suite(gold, neighbors, concert_schema, config, executor,
                        original=concert_db, query_id="q42")
    out = save_suite(suite, tmp_path)
    assert out == tmp_path / "q42"
    loaded = load_suite(out, concert_schema)
    assert loaded.gold_query == suite.gold_query
    assert loaded.distinguished == suite.distinguished
    assert loaded.construction_neighbors == suite.construction_neighbors
    assert [db.tables for db in loaded.databases] == [db.tables for db in suite.databases]
    assert loaded.gold_denotations == suite.gold_denotations
    assert loaded.build_time == suite.build_time > 0
    assert loaded.size_bytes() > 0
    # manifests written before build_time was recorded load as 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["build_time"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert load_suite(out, concert_schema).build_time == 0.0


def test_save_suite_removes_the_database_files_of_an_earlier_save(concert_schema, tmp_path):
    gold = "SELECT singer.name FROM singer"
    dbs = [fuzz_database(concert_schema, [], row_cap=5, seed=i) for i in range(3)]
    save_suite(testsuite.TestSuite("q1", gold, concert_schema, dbs, [Denotation(1, [])] * 3),
               tmp_path)
    out = save_suite(testsuite.TestSuite("q1", gold, concert_schema, dbs[2:],
                                         [Denotation(1, [])]), tmp_path)
    assert sorted(p.name for p in out.glob("*.sqlite")) == ["db_000.sqlite"]
    loaded = load_suite(out, concert_schema)
    assert [db.tables for db in loaded.databases] == [dbs[2].tables]


def test_a_save_that_stops_part_way_leaves_the_earlier_suite_whole(concert_schema, tmp_path,
                                                                  monkeypatch):
    # stopped after its database files and before its manifest, a save into
    # the suite's own directory left A's manifest and gold denotations over
    # B's files, and the suite loaded without error
    gold = "SELECT count(*) FROM singer"
    dbs = [fuzz_database(concert_schema, [], row_cap=20, seed=i) for i in range(4)]
    a = testsuite.TestSuite("q1", gold, concert_schema, dbs[:2], [Denotation(1, [(0,)])] * 2)
    b = testsuite.TestSuite("q1", gold, concert_schema, dbs[2:], [Denotation(1, [(1,)])] * 2)
    out = save_suite(a, tmp_path)
    dump = json.dump

    def stop(obj, fh, **kwargs):
        assert len(list(tmp_path.rglob("db_*.sqlite"))) == 4  # B's files are written
        raise KeyboardInterrupt

    monkeypatch.setattr(testsuite.json, "dump", stop)
    with pytest.raises(KeyboardInterrupt):
        save_suite(b, tmp_path)
    loaded = load_suite(out, concert_schema)
    assert [db.tables for db in loaded.databases] == [db.tables for db in dbs[:2]]
    assert loaded.gold_denotations == a.gold_denotations
    # the next save takes B's place whole and removes what the stopped one left
    monkeypatch.setattr(testsuite.json, "dump", dump)
    assert save_suite(b, tmp_path) == out
    assert [p.name for p in tmp_path.iterdir()] == ["q1"]
    loaded = load_suite(out, concert_schema)
    assert [db.tables for db in loaded.databases] == [db.tables for db in dbs[2:]]
    assert loaded.gold_denotations == b.gold_denotations


def test_a_live_worker_reads_a_suite_saved_again_with_other_rows(concert_schema, tmp_path):
    # the worker remembers outcomes per open file; a suite saved again under
    # the same name is new files, so it must answer from their rows
    gold = "SELECT count(*) FROM singer"
    with QueryExecutor(time_limit=5.0) as ex:
        for rows in (3, 5, 3):
            db = DatabaseInstance(concert_schema,
                                  {"singer": [(i, "Ann", 30, "US", 1.0) for i in range(rows)]})
            count = Denotation(1, [(rows,)])
            out = save_suite(testsuite.TestSuite("q1", gold, concert_schema, [db], [count]),
                             tmp_path)
            assert ex.execute(gold, out / "db_000.sqlite").denotation == count
            loaded = load_suite(out, concert_schema).databases[0]
            assert ex.first_passing(["SELECT 3", "SELECT 5"], None, [(loaded, count)]) == (
                rows == 5)


def test_load_suite_rejects_parts_that_disagree(concert_schema, tmp_path):
    # zipped unchecked, a suite missing one gold denotation loaded with more
    # databases than denotations, and TS checked only the first ones
    gold = "SELECT singer.name FROM singer"
    dbs = [fuzz_database(concert_schema, [], row_cap=5, seed=i) for i in range(2)]
    out = save_suite(testsuite.TestSuite("q1", gold, concert_schema, dbs,
                                         [Denotation(1, [])] * 2), tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    denotations = json.loads((out / "gold_denotations.json").read_text())
    for key in ("databases", "db_seeds", None):
        (out / "manifest.json").write_text(json.dumps(
            {**manifest, key: manifest[key][:1]} if key else manifest))
        (out / "gold_denotations.json").write_text(json.dumps(
            denotations if key else denotations[:1]))
        with pytest.raises(ValueError, match=re.escape(str(out))):
            load_suite(out, concert_schema)


@pytest.mark.parametrize("part, edit, message", [
    ("manifest.json", lambda manifest: {k: v for k, v in manifest.items() if k != "db_seeds"},
     "has no 'db_seeds' field"),
    ("manifest.json", lambda manifest: {**manifest, "config": {**manifest["config"], "x": 1}},
     "unexpected keyword argument 'x'"),
    ("manifest.json", "{", "manifest.json is not JSON"),
    ("gold_denotations.json", "[", "gold_denotations.json is not JSON"),
    ("manifest.json", lambda manifest: {**manifest, "databases": [123]},
     "databases field must be a list of file names, not [123]"),
    ("manifest.json", lambda manifest: {**manifest, "db_seeds": 3},
     "db_seeds field must be a list of integers or nulls, not 3"),
    ("manifest.json", lambda manifest: {**manifest, "distinguished": [1, 2]},
     "distinguished field must be an object from database indices"),
    ("manifest.json", lambda manifest: {**manifest, "distinguished": {"x": [0]}},
     "distinguished field must be an object from database indices"),
    ("manifest.json", lambda manifest: {**manifest, "build_time": "x"},
     "build_time field must be a number, not 'x'"),
], ids=["missing-key", "unknown-config-key", "manifest-not-json", "golds-not-json",
        "database-name-not-string", "db-seeds-not-list", "distinguished-not-object",
        "distinguished-key-not-index", "build-time-not-number"])
def test_load_suite_names_the_suite_it_cannot_read(concert_schema, tmp_path, part, edit,
                                                   message):
    dbs = [fuzz_database(concert_schema, [], row_cap=5, seed=0)]
    out = save_suite(testsuite.TestSuite("q1", "SELECT singer.name FROM singer",
                                         concert_schema, dbs, [Denotation(1, [])]), tmp_path)
    path = out / part
    path.write_text(edit if isinstance(edit, str)
                    else json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=re.escape(str(out))) as exc:
        load_suite(out, concert_schema)
    assert message in str(exc.value)


def test_load_suite_names_a_missing_database_file(concert_schema, tmp_path):
    # sqlite3 said only "unable to open database file"
    dbs = [fuzz_database(concert_schema, [], row_cap=5, seed=i) for i in range(2)]
    out = save_suite(testsuite.TestSuite("q1", "SELECT singer.name FROM singer",
                                         concert_schema, dbs, [Denotation(1, [])] * 2),
                     tmp_path)
    (out / "db_001.sqlite").unlink()
    with pytest.raises(FileNotFoundError, match=re.escape(str(out / "db_001.sqlite"))):
        load_suite(out, concert_schema)


def _saved_two_database_suite(schema, out):
    dbs = [fuzz_database(schema, [], row_cap=5, seed=i) for i in range(2)]
    suite = testsuite.TestSuite("q1", "SELECT singer.name FROM singer", schema, dbs,
                                [Denotation(1, [])] * 2)
    return dbs, save_suite(suite, out)


def test_load_suite_reads_no_rows(concert_schema, tmp_path):
    dbs, out = _saved_two_database_suite(concert_schema, tmp_path)
    loaded = load_suite(out, concert_schema)
    assert not any("tables" in vars(db) for db in loaded.databases)
    assert [db.materialize() for db in loaded.databases] == [
        out / "db_000.sqlite", out / "db_001.sqlite"]
    assert [db.tables for db in loaded.databases] == [db.tables for db in dbs]


@pytest.mark.parametrize("how", sorted(DATABASE_SPOILS))
def test_load_suite_names_a_database_file_it_cannot_load(concert_schema, tmp_path, how):
    _, out = _saved_two_database_suite(concert_schema, tmp_path)
    spoil_database(out / "db_001.sqlite", how)
    with pytest.raises(sqlite3.DatabaseError, match=re.escape(str(out / "db_001.sqlite"))):
        load_suite(out, concert_schema)


def test_suite_stats_rejects_overlapping_heldout(concert_schema, concert_db, executor):
    gold = parse("select name from singer where age > 30", concert_schema)
    neighbors = generate_neighbors(gold, concert_schema, 6, seed=0)
    config = SuiteConfig(max_dbs=2, max_attempts=30, nonempty_attempts=15,
                         row_cap=16, seed=5)
    suite = build_suite(gold, neighbors, concert_schema, config, executor,
                        original=concert_db)
    with pytest.raises(ValueError):
        suite_stats([suite], [neighbors], executor)


def test_suite_stats_render_and_json(concert_schema, concert_db, executor):
    gold = parse("select name from singer where age > 30", concert_schema)
    construction = generate_neighbors(gold, concert_schema, 10, seed=0)
    config = SuiteConfig(max_dbs=3, max_attempts=60, nonempty_attempts=30,
                         row_cap=24, seed=6)
    suite = build_suite(gold, construction, concert_schema, config, executor,
                        original=concert_db)
    pool = generate_neighbors(gold, concert_schema, 60, seed=100)
    taken = set(construction.neighbors)
    heldout = NeighborSet([t for t in pool.neighbors if t not in taken][:6])
    stats = suite_stats([suite], [heldout], executor)
    data = stats.to_json()
    assert set(data) == {"NoEmpty", "Cover", "Tests", "Time", "Size"}
    assert data["NoEmpty"] == 100.0
    assert data["Tests"] == len(suite.databases)
    lines = stats.render().splitlines()
    assert "NoEmpty" in lines[0] and "Size" in lines[0]
