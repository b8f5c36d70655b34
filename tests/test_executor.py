import itertools
import math
import multiprocessing
import re
import sqlite3
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedsql import executor as executor_module
from guidedsql.executor import (
    DatabaseInstance,
    Denotation,
    ExecutionOutcome,
    QueryExecutor,
    compare,
    gold_match,
    has_top_level_order_by,
    is_empty_output,
    normalize_cell,
)
from guidedsql.parser import parse
from guidedsql.schema import Schema, Table
from guidedsql.testsuite import fuzz_database


def test_normalize_cell():
    assert normalize_cell(None) is None
    assert normalize_cell(3) == 3
    assert normalize_cell(3.0) == 3
    assert normalize_cell(-2.0) == -2
    assert normalize_cell(1 / 3) == 1 / 3
    assert normalize_cell(b"abc") == "abc"
    assert normalize_cell("abc") == "abc"


@given(st.one_of(st.none(), st.integers(),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.text()))
def test_normalize_cell_idempotent(value):
    once = normalize_cell(value)
    assert normalize_cell(once) == once
    assert once == value


def test_real_cells_keep_their_value():
    # a 16-bit rounding made the first pair both inf and the second equal
    for a, b in [(70000.5, 99999.5), (1000.3, 1000.6)]:
        assert normalize_cell(a) == a and normalize_cell(b) == b
        assert not compare(Denotation(1, [(normalize_cell(a),)]),
                           Denotation(1, [(normalize_cell(b),)]))


def test_compare_unordered_sort_tolerates_tiny_differences():
    near_one = 1.0 + 1e-12
    a = Denotation(2, [(1.0, "b"), (near_one, "a")])
    b = Denotation(2, [(near_one, "b"), (1.0, "a")])
    assert compare(a, b)


def test_compare_pairs_rows_equal_within_tolerance():
    # sorted on a rounded key, the two sides paired these rows wrongly
    a = Denotation(2, [(1.0000001, "x"), (1.0000002, "y")])
    b = Denotation(2, [(1.0000002, "x"), (1.0000001, "y")])
    assert compare(a, b)
    assert not compare(a, Denotation(2, [(1.0000002, "x"), (1.1, "y")]))
    # with no text cell, the sorted order still pairs these wrongly
    assert compare(Denotation(2, [(1.0000001, 5), (1.0000002, 3)]),
                   Denotation(2, [(1.0000002, 5), (1.0000001, 3)]))


def _cell_equal(x, y) -> bool:
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return math.isclose(x, y, rel_tol=1e-6, abs_tol=1e-9)
    return x == y


_NEAR_CELLS = st.sampled_from([1.0, 1.0000005, 1.000001, 1.0000015, 2, None, "a"])


@given(st.lists(st.tuples(_NEAR_CELLS, _NEAR_CELLS), max_size=5),
       st.lists(st.tuples(_NEAR_CELLS, _NEAR_CELLS), max_size=5))
def test_compare_is_a_one_to_one_pairing_within_tolerance(rows_a, rows_b):
    expected = len(rows_a) == len(rows_b) and any(
        all(_cell_equal(x, y) for ra, rb in zip(rows_a, perm) for x, y in zip(ra, rb))
        for perm in itertools.permutations(rows_b))
    assert compare(Denotation(2, rows_a), Denotation(2, rows_b)) == expected


def test_has_top_level_order_by():
    assert has_top_level_order_by("select a from t order by a")
    assert not has_top_level_order_by("select a from t")
    assert not has_top_level_order_by(
        "select a from t where b in (select b from t order by b limit 1)"
    )
    assert not has_top_level_order_by("select a from t where c = 'order by'")


def _reference_has_top_level_order_by(sql):
    """The check's own pattern and loop before it became a view over
    parser.lex, kept as the reference the view must reproduce."""
    depth = 0
    tokens = re.findall(r"'(?:[^']|'')*'|\(|\)|[A-Za-z_]+|\S", sql)
    for i, tok in enumerate(tokens):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif depth == 0 and tok.lower() == "order":
            if i + 1 < len(tokens) and tokens[i + 1].lower() == "by":
                return True
    return False


ORDER_BY_PIECES = ["select", "a", "x_", "order", "ORDER", "by", "By", "order by", "1", "1.5",
                   ".", "'", "''", "'order by'", "(", "(", "(select", ")", ")", ",", "=", "é"]
# each piece followed by no space, a space or a newline
order_by_text = st.lists(
    st.tuples(st.sampled_from(ORDER_BY_PIECES), st.sampled_from(["", " ", "\n"])),
    max_size=16,
).map(lambda pairs: "".join(piece + space for piece, space in pairs))


@settings(max_examples=300)
@given(order_by_text)
def test_has_top_level_order_by_matches_reference(sql):
    # a name fused to digits stays one name now: the one intended difference
    if re.search(r"[A-Za-z_][A-Za-z_0-9]*[0-9]", sql) is None:
        assert has_top_level_order_by(sql) == _reference_has_top_level_order_by(sql)


def test_has_top_level_order_by_keeps_names_fused_to_digits_whole():
    assert not has_top_level_order_by("select t1order by x")
    assert _reference_has_top_level_order_by("select t1order by x")
    assert has_top_level_order_by("select a from t1 ORDER\nBY a")


def test_execute_success(executor, concert_db):
    out = executor.execute("SELECT name FROM singer WHERE age > 30", concert_db)
    assert out.ok
    assert sorted(out.denotation.rows) == [("Ann",), ("Cy",), ("Eli",), ("Fay",)]
    assert not out.denotation.ordered


def test_execute_marks_ordered(executor, concert_db):
    out = executor.execute("SELECT name FROM singer ORDER BY age", concert_db)
    assert out.ok and out.denotation.ordered


def test_execute_error_is_in_band(executor, concert_db):
    out = executor.execute("SELECT nope FROM singer", concert_db)
    assert out.status == "error"
    assert out.denotation is None and out.message


def test_execute_accepts_path(executor, concert_db, tmp_path):
    path = concert_db.to_sqlite(tmp_path / "c.sqlite")
    out = executor.execute("SELECT count(*) FROM concert", path)
    assert out.ok and out.denotation.rows == [(6,)]


def _reference_to_sqlite(db: DatabaseInstance, path) -> None:
    """`to_sqlite` on a connection with SQLite's default journal and syncs."""
    con = sqlite3.connect(path)
    try:
        db._fill(con)
    finally:
        con.close()


def test_to_sqlite_writes_the_bytes_of_a_default_connection(concert_db, cars_db, tmp_path):
    schema = Schema(tables=[Table("t", [("a", "integer"), ("b", "text"), ("c", "real")]),
                            Table("empty", [("x", "text")])])
    quoted = DatabaseInstance(schema, {
        "t": [(1, "it's", 2.5), (None, 'say "hi"', None), (3, None, -0.125)],
        "empty": [],
    })
    dbs = [concert_db, cars_db, quoted]
    dbs += [fuzz_database(concert_db.schema, [], row_cap=40, seed=s, original=concert_db)
            for s in range(3)]
    dbs += [fuzz_database(cars_db.schema, [], row_cap=40, seed=s) for s in range(3)]
    for i, db in enumerate(dbs):
        got = db.to_sqlite(tmp_path / f"got{i}.sqlite")
        want = tmp_path / f"want{i}.sqlite"
        _reference_to_sqlite(db, want)
        assert got.read_bytes() == want.read_bytes(), i
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(f"got{i}")) == [
            f"got{i}.sqlite"]
        assert DatabaseInstance.from_sqlite(got, db.schema).tables == db.tables


def test_timeout_reported_within_grace(concert_db):
    heavy = (
        "SELECT count(*) FROM concert a, concert b, concert c, concert d, "
        "concert e, concert f, concert g, concert h, concert i, concert j"
    )
    with QueryExecutor(time_limit=0.3, workers=1) as ex:
        out = ex.execute(heavy, concert_db)
        assert out.status == "timeout"
        assert out.limit == 0.3
        assert out.wall_time < 0.3 + 0.5
        # the worker survives (or was respawned) and keeps serving
        again = ex.execute("SELECT count(*) FROM singer", concert_db)
        assert again.ok and again.denotation.rows == [(6,)]


def test_crash_recovery(concert_db):
    with QueryExecutor(time_limit=5.0, workers=1, enable_test_functions=True) as ex:
        out = ex.execute("SELECT crash_now()", concert_db)
        assert out.status == "error"
        again = ex.execute("SELECT count(*) FROM singer", concert_db)
        assert again.ok and again.denotation.rows == [(6,)]


def test_one_worker_serves_crash_then_timeout_then_query(concert_db):
    heavy = "SELECT count(*) FROM " + ", ".join(f"concert c{i}" for i in range(10))
    with QueryExecutor(time_limit=5.0, enable_test_functions=True) as ex:
        crashed = ex.execute("SELECT crash_now()", concert_db)
        assert crashed.status == "error" and crashed.message == "query worker crashed"
        slow = ex.execute(heavy, concert_db, time_limit=0.3)
        assert slow.status == "timeout" and slow.wall_time < 0.3 + 0.5
        out = ex.execute("SELECT count(*) FROM singer", concert_db)
        assert out.ok and out.denotation.rows == [(6,)]


HEAVY = "SELECT count(*) FROM " + ", ".join(f"concert c{i}" for i in range(10))


def test_first_passing_survives_crash_and_timeout_mid_batch(concert_db):
    candidates = [
        "SELECT count(*) FROM singer WHERE age > 30",  # runs, mismatches
        "SELECT crash_now()",  # kills the worker
        HEAVY,  # interrupted in-band at the limit
        "SELECT count(*) FROM singer",  # matches gold
    ]
    before = set(multiprocessing.active_children())
    with QueryExecutor(time_limit=0.3, enable_test_functions=True) as ex:
        tests = [(concert_db, None)]
        assert ex.first_passing(candidates, "SELECT count(*) FROM singer", tests) == 3
        assert ex.first_passing(candidates[:3], "SELECT count(*) FROM singer", tests) is None
        assert len(set(multiprocessing.active_children()) - before) == 1


def test_first_passing_kills_a_blocked_worker_and_checks_the_rest(concert_db):
    limit = 0.3
    blocked = "SELECT sleep_now(30)"  # no progress handler call while it sleeps
    before = set(multiprocessing.active_children())
    with QueryExecutor(time_limit=limit, enable_test_functions=True) as ex:
        tests = [(concert_db, Denotation(1, [(6,)]))]
        start = time.monotonic()
        assert ex.first_passing([blocked], None, tests) is None
        assert time.monotonic() - start < limit + 0.5
        match = "SELECT count(*) FROM singer"
        assert ex.first_passing([blocked, blocked, match], None, tests) == 2
        assert ex.execute(match, concert_db).denotation.rows == [(6,)]
        assert len(set(multiprocessing.active_children()) - before) == 1


def test_first_passing_runs_a_missing_gold_once_per_request(concert_db):
    tests = [(concert_db, None)]
    with QueryExecutor(time_limit=5.0, enable_test_functions=True) as ex:
        slow_gold = "SELECT sleep_now(0.2)"
        start = time.monotonic()
        assert ex.first_passing([f"SELECT {i}" for i in range(5)], slow_gold, tests) is None
        assert time.monotonic() - start < 0.6  # five gold runs would take 1 s
        # a gold that kills the worker fails only the candidate it ran for
        crashing_gold = "SELECT count(*) FROM singer WHERE crash_now() IS NULL"
        assert ex.first_passing(["SELECT 1", "SELECT 2"], crashing_gold, tests) is None
        assert ex.first_passing(["SELECT 5", "SELECT 6"], "SELECT 6", tests) == 1
        assert ex.first_passing([], "SELECT 6", tests) is None
        assert ex.first_passing(["SELECT nope"], None, []) == 0


def test_worker_reopens_a_replaced_database_file(tmp_path):
    schema = Schema(tables=[Table("t", [("x", "integer")])])
    path = tmp_path / "t.sqlite"
    DatabaseInstance(schema, {"t": [(1,)]}).to_sqlite(path)
    with QueryExecutor(time_limit=5.0) as ex:
        assert ex.execute("select x from t", path).denotation.rows == [(1,)]
        DatabaseInstance(schema, {"t": [(2,)]}).to_sqlite(path)
        assert ex.execute("select x from t", path).denotation.rows == [(2,)]
        tests = [(path, Denotation(1, [(2,)]))]
        assert ex.first_passing(["select x from t"], None, tests) == 0


def test_distinguish_survives_crash_and_kill_mid_request(concert_db):
    limit = 0.3
    sqls = [
        "SELECT count(*) FROM singer WHERE age > 30",  # differs
        "SELECT count(*) FROM singer",  # matches
        "SELECT crash_now()",  # kills the worker
        "SELECT count(*) FROM singer WHERE age < 30",  # differs, on a new worker
        "SELECT sleep_now(30)",  # no progress handler call: the parent kills it
        "SELECT count(*) FROM singer WHERE age < 40",  # differs, on a new worker
        "SELECT 6",  # matches
    ]
    before = set(multiprocessing.active_children())
    with QueryExecutor(time_limit=limit, enable_test_functions=True) as ex:
        start = time.monotonic()
        gold, apart = ex.distinguish(concert_db, "SELECT count(*) FROM singer", sqls)
        assert time.monotonic() - start < 2 * (limit + 0.5)
        assert gold == Denotation(1, [(6,)])
        assert apart == [0, 2, 3, 4, 5]
        # the same with gold's denotation given: gold_sql never runs
        assert ex.distinguish(concert_db, "SELECT crash_now()", sqls, gold) == (gold, apart)
        assert len(set(multiprocessing.active_children()) - before) == 1


def test_distinguish_rejects_a_database_whose_gold_fails(concert_db):
    with QueryExecutor(time_limit=0.3, enable_test_functions=True) as ex:
        assert ex.distinguish(concert_db, "SELECT nope FROM singer", ["SELECT 1"]) == (None, [])
        assert ex.distinguish(concert_db, "SELECT crash_now()", ["SELECT 1"]) == (None, [])
        assert ex.distinguish(concert_db, HEAVY, ["SELECT 1"]) == (None, [])
        assert ex.distinguish(concert_db, "SELECT 1", ["SELECT 2"]) == (Denotation(1, [(1,)]), [0])


def test_distinguish_runs_no_query_when_gold_output_is_empty(concert_schema, concert_db):
    before = set(multiprocessing.active_children())
    with QueryExecutor(time_limit=5.0, enable_test_functions=True) as ex:
        for sql in ("select name from singer where age > 100",
                    "select count(*) from singer where age > 100"):
            gold = parse(sql, concert_schema)
            den, apart = ex.distinguish(concert_db, sql, ["SELECT crash_now()"],
                                        nonempty_for=gold)
            assert is_empty_output(den, gold) and apart == []
        # a non-empty output runs them
        sql = "select name from singer where age > 50"
        den, apart = ex.distinguish(concert_db, sql, ["SELECT name FROM singer"],
                                    nonempty_for=parse(sql, concert_schema))
        assert den.rows == [("Eli",)] and apart == [0]
        assert len(set(multiprocessing.active_children()) - before) == 1


def test_distinguish_database_is_read_only(concert_db):
    with QueryExecutor(time_limit=5.0) as ex:
        sqls = ["DELETE FROM singer", "SELECT count(*) FROM singer",
                "INSERT INTO concert VALUES (1, 1, 2000, 1, 'x')",
                "SELECT count(*) FROM singer"]
        gold, apart = ex.distinguish(concert_db, "SELECT count(*) FROM singer", sqls)
        assert gold.rows == [(6,)] and apart == [0, 2]


def test_building_a_database_from_rows_is_not_timed(concert_schema, monkeypatch):
    # building the DB takes longer than the watchdog's limit + grace; only
    # the query that runs on it counts against the limit
    limit = 0.25
    monkeypatch.setattr(executor_module, "_GRACE", 0.05)
    rows = 600_000
    db = DatabaseInstance(concert_schema, {"singer": [(1, "Ann", 32, "US", 8.5)] * rows})
    count = Denotation(1, [(rows,)])
    with QueryExecutor(time_limit=limit) as ex:
        for request, expected in (
                (lambda: ex.distinguish(db, "SELECT count(*) FROM singer", ["SELECT 1"]),
                 (count, [0])),
                (lambda: ex.execute("SELECT count(*) FROM singer", db).denotation, count)):
            start = time.monotonic()
            assert request() == expected
            assert time.monotonic() - start > limit + executor_module._GRACE


def test_database_path_with_uri_characters(concert_db, executor, tmp_path):
    names = ["run#1", "what?", "100%25"]
    for name in names:
        (tmp_path / name).mkdir()
        path = concert_db.to_sqlite(tmp_path / name / "c.sqlite")
        loaded = DatabaseInstance.from_sqlite(path, concert_db.schema)
        assert loaded.tables == concert_db.tables
        for db in (path, loaded):
            out = executor.execute("SELECT count(*) FROM singer", db)
            assert out.ok and out.denotation.rows == [(6,)], out
        assert executor.first_passing(["SELECT count(*) FROM concert"], None,
                                      [(path, Denotation(1, [(6,)]))]) == 0
    # a path cut at `#` or `?` opens, and creates, a stray file beside the directory
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_no_request_writes_a_file(concert_db, cars_db, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with QueryExecutor(time_limit=5.0) as ex:
        for db in (concert_db, cars_db):
            assert ex.execute("SELECT 1", db).denotation == Denotation(1, [(1,)])
            assert ex.first_passing(["SELECT 2", "SELECT 1"], "SELECT 1", [(db, None)]) == 1
            assert ex.distinguish(db, "SELECT 1", ["SELECT 2"]) == (Denotation(1, [(1,)]), [0])
            assert db.materialize() is None
    assert list(tmp_path.iterdir()) == []


def test_size_bytes_of_an_unsaved_database_is_its_file_size(concert_db, cars_db, tmp_path):
    for original, row_cap, seed in itertools.product((concert_db, cars_db), (5, 100, 400),
                                                     range(3)):
        db = fuzz_database(original.schema, [], row_cap=row_cap, seed=seed, original=original)
        size = db.size_bytes()
        path = db.to_sqlite(tmp_path / "db.sqlite")
        assert db.materialize() is None
        assert size == path.stat().st_size


def test_executor_accepts_only_one_worker():
    before = set(multiprocessing.active_children())
    with pytest.raises(ValueError):
        QueryExecutor(workers=2)
    assert set(multiprocessing.active_children()) == before


def test_sqlite_roundtrip(concert_schema, concert_db, tmp_path):
    path = concert_db.to_sqlite(tmp_path / "db.sqlite")
    loaded = DatabaseInstance.from_sqlite(path, concert_schema)
    expected = {
        name: [tuple(normalize_cell(c) for c in row) for row in rows]
        for name, rows in concert_db.tables.items()
    }
    assert loaded.tables == expected


def test_validate_flags_violations(concert_schema):
    db = DatabaseInstance(
        schema=concert_schema,
        tables={
            "singer": [(1, "Ann", 32, "US", 8.5), (1, "Bo", 24, "UK", 6.0)],
            "concert": [(10, 99, 2015, 800, "hall")],
        },
    )
    problems = "\n".join(db.validate())
    assert "duplicate primary key" in problems
    assert "dangling foreign key" in problems


def test_compare_multiset_vs_ordered():
    a = Denotation(1, [(1,), (2,)], ordered=False)
    b = Denotation(1, [(2,), (1,)], ordered=False)
    assert compare(a, b)
    assert not compare(
        Denotation(1, [(1,), (2,)], ordered=True),
        Denotation(1, [(2,), (1,)], ordered=True),
    )


def test_compare_counts_and_arity():
    assert not compare(Denotation(1, [(1,)]), Denotation(1, [(1,), (1,)]))
    assert not compare(Denotation(1, [(1,)]), Denotation(2, [(1, 1)]))


def test_compare_numeric_tolerance_and_nulls():
    assert compare(Denotation(1, [(1.0,)]), Denotation(1, [(1 + 1e-9,)]))
    assert not compare(Denotation(1, [(1.0,)]), Denotation(1, [(1.1,)]))
    assert compare(Denotation(1, [(None,)]), Denotation(1, [(None,)]))
    assert not compare(Denotation(1, [(None,)]), Denotation(1, [(0,)]))


def test_compare_mixed_type_rows_sortable():
    a = Denotation(1, [("x",), (1,), (None,)])
    b = Denotation(1, [(None,), (1,), ("x",)])
    assert compare(a, b)


@given(st.lists(st.tuples(st.integers(-5, 5), st.text(max_size=2)), max_size=6),
       st.randoms())
def test_compare_invariant_under_permutation(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert compare(Denotation(2, rows), Denotation(2, shuffled))


def test_denotation_json_roundtrip():
    d = Denotation(2, [(1, "a"), (None, 2.5)], ordered=True)
    assert Denotation.from_json(d.to_json()) == d


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


class CountingExecutor:
    """Fake executor: answers from a {(sql, db): rows or None} table, where
    None is an error, and records every query it runs."""

    def __init__(self, answers):
        self.answers = answers
        self.calls = []

    def execute(self, sql, db, time_limit=None):
        self.calls.append((sql, db))
        rows = self.answers[(sql, db)]
        if rows is None:
            return ExecutionOutcome("error", message="no such column")
        return ExecutionOutcome("success", denotation=Denotation(1, rows))

    def first_passing(self, sqls, gold_sql, tests, time_limit=None):
        # the worker's loop, run here over the recorded table
        return gold_match(self.execute, sqls, gold_sql, tests)[1]


def test_matches_gold_runs_gold_lazily_after_the_candidate():
    ex = CountingExecutor({("cand", "db1"): [(1,)], ("gold", "db1"): [(1,)],
                           ("cand", "db2"): [(2,)]})
    tests = [("db1", None), ("db2", Denotation(1, [(2,)]))]
    assert ex.first_passing(["cand"], "gold", tests) == 0
    assert ex.calls == [("cand", "db1"), ("gold", "db1"), ("cand", "db2")]


def test_matches_gold_failing_candidate_never_runs_gold():
    ex = CountingExecutor({("cand", "db1"): None})
    assert ex.first_passing(["cand"], "gold", [("db1", None), ("db2", None)]) != 0
    assert ex.calls == [("cand", "db1")]


def test_matches_gold_gold_error_and_mismatch_fail():
    ex = CountingExecutor({("cand", "db1"): [(1,)], ("gold", "db1"): None})
    assert ex.first_passing(["cand"], "gold", [("db1", None)]) != 0
    ex = CountingExecutor({("cand", "db1"): [(1,)], ("cand", "db2"): [(3,)]})
    tests = [("db1", Denotation(1, [(2,)])), ("db2", Denotation(1, [(3,)]))]
    assert ex.first_passing(["cand"], "gold", tests) != 0
    assert ex.calls == [("cand", "db1")]


def test_matches_gold_no_tests_passes():
    ex = CountingExecutor({})
    assert ex.first_passing(["cand"], "gold", []) == 0
    assert ex.calls == []


def test_gold_match_reports_only_without_stop():
    # without stop: gold first, then every candidate, with the golds reported
    # before the first and each failing index as it fails
    answers = {("gold", "db1"): [(1,)], ("a", "db1"): [(2,)], ("b", "db1"): [(1,)],
               ("c", "db1"): None}
    ex, events = CountingExecutor(answers), []
    golds, first = gold_match(ex.execute, ["a", "b", "c"], "gold", [("db1", None)],
                              stop=False, report=events.append)
    assert ex.calls == [("gold", "db1"), ("a", "db1"), ("b", "db1"), ("c", "db1")]
    assert golds[0].denotation == Denotation(1, [(1,)]) and first == 1
    assert events == [golds, 0, 2]
    # with stop: gold runs lazily and nothing is reported before the result
    ex, events = CountingExecutor(answers), []
    assert gold_match(ex.execute, ["a", "b", "c"], "gold", [("db1", None)],
                      report=events.append) == ([None], 1)
    assert ex.calls == [("a", "db1"), ("gold", "db1"), ("b", "db1")] and events == []
    # a gold that fails runs no candidate and reports nothing
    ex, events = CountingExecutor({("gold", "db1"): None}), []
    golds, first = gold_match(ex.execute, ["a"], "gold", [("db1", None)],
                              stop=False, report=events.append)
    assert golds[0].status == "error" and first is None
    assert ex.calls == [("gold", "db1")] and events == []
