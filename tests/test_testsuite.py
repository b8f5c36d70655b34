import json

import pytest

from guidedsql.parser import parse
from guidedsql.query_ast import print_query
from guidedsql.schema import ColumnId, Schema, Table
from guidedsql.testsuite import (
    NeighborSet,
    NoNeighborsPossible,
    SuiteConfig,
    build_suite,
    fuzz_database,
    generate_neighbors,
    load_suite,
    save_suite,
    suite_stats,
)


def neighbor_texts(schema, sql, count=200, seed=0):
    return set(generate_neighbors(parse(sql, schema), schema, count, seed).texts())


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
        assert gold_text not in ns.texts()
        assert all(n != gold for n in ns.neighbors)
        assert len(set(ns.texts())) == len(ns.neighbors)


def test_neighbors_seeded_selection_is_deterministic(concert_schema):
    gold = parse("select name from singer where age > 30", concert_schema)
    a = generate_neighbors(gold, concert_schema, 5, seed=42).texts()
    b = generate_neighbors(gold, concert_schema, 5, seed=42).texts()
    c = generate_neighbors(gold, concert_schema, 5, seed=43).texts()
    assert a == b
    assert a != c  # overwhelmingly likely given the catalog size


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
    assert db.provenance == "fuzzed" and db.seed == 7


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
    taken = set(construction.texts())
    heldout = NeighborSet(
        gold,
        [n for n, t in zip(pool.neighbors, pool.texts()) if t not in taken][:6],
        100,
    )
    stats = suite_stats([suite], [heldout], executor)
    data = stats.to_json()
    assert set(data) == {"NoEmpty", "Cover", "Tests", "Time", "Size"}
    assert data["NoEmpty"] == 100.0
    assert data["Tests"] == len(suite.databases)
    lines = stats.render().splitlines()
    assert "NoEmpty" in lines[0] and "Size" in lines[0]
