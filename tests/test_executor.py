import itertools
import math
import multiprocessing
import os
import re
import sqlite3
import tempfile
import time
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedsql import executor as executor_module
from guidedsql.executor import (
    DatabaseInstance,
    Denotation,
    ExecutionOutcome,
    OutcomeMemo,
    QueryExecutor,
    compare,
    gold_match,
    has_top_level_order_by,
    memoized,
    normalize_cell,
)
from guidedsql.schema import Schema, Table
from guidedsql.testsuite import fuzz_database

from conftest import DATABASE_SPOILS, spoil_database


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
        start = time.monotonic()
        out = ex.execute(heavy, concert_db)
        assert out.status == "timeout"
        assert time.monotonic() - start < 0.3 + 0.5
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
        start = time.monotonic()
        slow = ex.execute(heavy, concert_db, time_limit=0.3)
        assert slow.status == "timeout" and time.monotonic() - start < 0.3 + 0.5
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
        # a gold that kills the worker fails the request: no candidate runs
        crashing_gold = "SELECT count(*) FROM singer WHERE crash_now() IS NULL"
        assert ex.first_passing(["SELECT 1", "SELECT 2"], crashing_gold, tests) is None
        assert ex.first_passing(["SELECT 5", "SELECT 6"], "SELECT 6", tests) == 1
        assert ex.first_passing([], "SELECT 6", tests) is None
        assert ex.first_passing(["SELECT nope"], None, []) == 0


def test_first_passing_kills_a_hanging_gold_once_per_request(concert_db):
    # gold runs before any candidate, so the worker is killed once, not once
    # per candidate that succeeds (the bound of acceptance check 9)
    limit = 0.3
    before = set(multiprocessing.active_children())
    with QueryExecutor(time_limit=limit, enable_test_functions=True) as ex:
        start = time.monotonic()
        candidates = [f"SELECT {i}" for i in range(10)]
        assert ex.first_passing(candidates, "SELECT sleep_now(30)", [(concert_db, None)]) is None
        assert time.monotonic() - start < limit + 0.5
        assert ex.execute("SELECT count(*) FROM singer", concert_db).denotation.rows == [(6,)]
        assert len(set(multiprocessing.active_children()) - before) == 1


def test_first_passing_respawns_once_for_a_gold_that_crashes(concert_db):
    with QueryExecutor(time_limit=5.0, enable_test_functions=True) as ex:
        respawns, respawn = [], ex._respawn
        ex._respawn = lambda: (respawns.append(1), respawn())
        candidates = [f"SELECT {i}" for i in range(10)]
        assert ex.first_passing(candidates, "SELECT crash_now()", [(concert_db, None)]) is None
        assert len(respawns) == 1
        assert ex.first_passing(candidates, "SELECT 3", [(concert_db, None)]) == 3
        assert len(respawns) == 1


def test_first_passing_runs_gold_once_across_crashing_candidates(concert_db):
    # the golds are reported before any candidate, so the request resumed
    # after a crash carries gold's denotation and does not run it again
    with QueryExecutor(time_limit=5.0, enable_test_functions=True) as ex:
        respawns, respawn = [], ex._respawn
        ex._respawn = lambda: (respawns.append(1), respawn())
        candidates = ["SELECT crash_now()", "SELECT crash_now()", "SELECT NULL"]
        start = time.monotonic()
        assert ex.first_passing(candidates, "SELECT sleep_now(0.3)", [(concert_db, None)]) == 2
        assert time.monotonic() - start < 0.6  # three gold runs would take 0.9 s
        assert len(respawns) == 2


def test_first_passing_runs_gold_once_across_a_hanging_candidate(concert_db):
    with QueryExecutor(time_limit=0.3, enable_test_functions=True) as ex:
        respawned, respawn = [], ex._respawn
        ex._respawn = lambda: (respawned.append(time.monotonic()), respawn())
        candidates = ["SELECT sleep_now(30)", "SELECT NULL"]
        assert ex.first_passing(candidates, "SELECT sleep_now(0.25)", [(concert_db, None)]) == 1
        # after the kill only the last candidate runs, not gold's 0.25 s again
        assert len(respawned) == 1 and time.monotonic() - respawned[0] < 0.2


def test_request_traffic(concert_db):
    tests = [(concert_db, None), (concert_db, Denotation(1, [(6,)]))]
    gold = "SELECT count(*) FROM singer"
    with QueryExecutor(time_limit=5.0, enable_test_functions=True) as ex:
        replies, reply = [], ex._reply
        ex._reply = lambda limit: replies.append(1) or reply(limit)
        # no candidates: no request, so a slow gold costs nothing
        start = time.monotonic()
        assert ex.first_passing([], "SELECT sleep_now(1)", tests) is None
        assert time.monotonic() - start < 0.5 and replies == []
        # a stop request that runs a gold gets its report and the result, and
        # returns the golds it ran
        candidates = ["SELECT 1", "SELECT nope", "SELECT 6", "SELECT 2"]
        golds, first, apart = ex._request(candidates, gold, tests, True, None)
        assert golds[0].ok and golds[0].denotation == Denotation(1, [(6,)])
        assert golds[1] is None and first == 2 and apart == []
        assert len(replies) == 2
        # one with every gold given gets only the result
        replies.clear()
        given = [(concert_db, Denotation(1, [(6,)]))] * 2
        assert ex.first_passing(candidates, gold, given) == 2 and len(replies) == 1
        # without stop: the golds, each candidate told apart, then the result
        replies.clear()
        assert ex.distinguish(concert_db, gold, candidates) == (Denotation(1, [(6,)]), [0, 1, 3])
        assert len(replies) == 5
        replies.clear()
        assert ex.distinguish(concert_db, gold, candidates, Denotation(1, [(6,)])) == (
            Denotation(1, [(6,)]), [0, 1, 3])
        assert len(replies) == 4


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


def test_a_missing_database_fails_each_query_that_reads_it(tmp_path):
    schema = Schema(tables=[Table("t", [("x", "integer")])])
    path = DatabaseInstance(schema, {"t": [(1,)]}).to_sqlite(tmp_path / "t.sqlite")
    missing = tmp_path / "missing.sqlite"
    gold = Denotation(1, [(1,)])
    with QueryExecutor(time_limit=5.0) as ex:
        out = ex.execute("select x from t", missing)
        assert out.status == "error" and "unable to open" in out.message
        assert ex.execute("select 1", "nul\0name.sqlite").status == "error"
        # without stop every candidate runs, and each fails on the missing file
        assert ex.distinguish(missing, "select x from t", ["select x from t", "select 1"],
                              gold) == (gold, [0, 1])
        assert ex.first_passing(["select x from t"], None,
                                [(path, gold), (missing, gold)]) is None
        assert ex.first_passing(["select x from t"], None, [(path, gold)]) == 0
        assert not missing.exists()


def test_one_request_reads_more_databases_than_the_worker_keeps_open(tmp_path):
    # the worker drops its open files past 64, but never in the middle of a
    # request that reads them
    schema = Schema(tables=[Table("t", [("x", "integer")])])
    tests = [(DatabaseInstance(schema, {"t": [(i,)]}).to_sqlite(tmp_path / f"{i}.sqlite"),
              Denotation(1, [(i,)])) for i in range(70)]
    with QueryExecutor(time_limit=5.0) as ex:
        for _ in range(2):
            assert ex.first_passing(["select 0 from t", "select x from t"], None,
                                    tests) == 1


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


def test_worker_connections_admit_only_reads(concert_db, tmp_path):
    # VACUUM INTO wrote a copy of a file DB, ATTACH created a file (and stayed
    # attached to the worker's cached connection), and lifting query_only let
    # a later candidate of the same request delete rows another one counted
    path = concert_db.to_sqlite(tmp_path / "concert.sqlite")
    saved = path.read_bytes()
    count = Denotation(1, [(6,)])
    with QueryExecutor(time_limit=5.0) as ex:
        for db in (path, concert_db):
            for sql in (f"VACUUM INTO '{tmp_path / 'copy.sqlite'}'",
                        f"ATTACH DATABASE '{tmp_path / 'extra.sqlite'}' AS e",
                        "PRAGMA query_only = OFF", "DELETE FROM singer"):
                out = ex.execute(sql, db)
                assert out.status == "error", (sql, out)
            assert ex.execute("SELECT count(*) FROM e.sqlite_master", db).status == "error"
            assert ex.execute("SELECT count(*) FROM singer", db).denotation == count
        sqls = ["PRAGMA query_only = OFF", "DELETE FROM singer", "SELECT count(*) FROM singer"]
        assert ex.distinguish(concert_db, "SELECT count(*) FROM singer", sqls) == (count, [0, 1])
    assert [p.name for p in tmp_path.iterdir()] == ["concert.sqlite"]
    assert path.read_bytes() == saved


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
    assert "tables" not in vars(loaded)  # load reads no rows
    assert loaded.materialize() == path
    expected = {
        name: [tuple(normalize_cell(c) for c in row) for row in rows]
        for name, rows in concert_db.tables.items()
    }
    assert loaded.tables == expected
    assert vars(loaded)["tables"] is loaded.tables  # read once, on first use


def test_a_loaded_database_whose_file_is_gone_fails_before_the_worker(concert_db, executor,
                                                                      tmp_path):
    # without its file the executor ships the instance, and a pickled
    # instance carries its rows: those read before still run, and one that
    # never read them fails in the caller, naming the file
    path = concert_db.to_sqlite(tmp_path / "db.sqlite")
    read, unread = (DatabaseInstance.from_sqlite(path, concert_db.schema) for _ in range(2))
    assert read.tables == concert_db.tables
    path.unlink()
    assert executor.execute("SELECT count(*) FROM singer", read).denotation.rows == [(6,)]
    with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
        executor.execute("SELECT count(*) FROM singer", unread)
    assert executor.execute("SELECT count(*) FROM concert", read).denotation.rows == [(6,)]


@pytest.mark.parametrize("how", sorted(DATABASE_SPOILS))
def test_from_sqlite_names_the_file_it_cannot_load(concert_schema, concert_db, tmp_path, how):
    # sqlite3 named no file; and a load that defers its rows must still fail
    path = concert_db.to_sqlite(tmp_path / "db.sqlite")
    spoil_database(path, how)
    with pytest.raises(sqlite3.DatabaseError, match=re.escape(str(path))) as exc:
        DatabaseInstance.from_sqlite(path, concert_schema)
    assert DATABASE_SPOILS[how] in str(exc.value)


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
        return gold_match(self.execute, sqls, gold_sql, tests)


def test_matches_gold_runs_a_missing_gold_before_the_candidate():
    ex = CountingExecutor({("cand", "db1"): [(1,)], ("gold", "db1"): [(1,)],
                           ("cand", "db2"): [(2,)]})
    tests = [("db1", None), ("db2", Denotation(1, [(2,)]))]
    assert ex.first_passing(["cand"], "gold", tests) == 0
    assert ex.calls == [("gold", "db1"), ("cand", "db1"), ("cand", "db2")]


def test_matches_gold_failing_candidate_stops_at_its_first_database():
    ex = CountingExecutor({("gold", "db1"): [(1,)], ("gold", "db2"): [(2,)],
                           ("cand", "db1"): None})
    assert ex.first_passing(["cand"], "gold", [("db1", None), ("db2", None)]) != 0
    # every missing gold runs first; the candidate's error on db1 ends its check
    assert ex.calls == [("gold", "db1"), ("gold", "db2"), ("cand", "db1")]


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


def test_gold_match_reports_golds_once_and_failures_only_without_stop():
    # without stop: gold first, then every candidate, with the golds reported
    # before the first and each failing index as it fails
    answers = {("gold", "db1"): [(1,)], ("a", "db1"): [(2,)], ("b", "db1"): [(1,)],
               ("c", "db1"): None}
    ex, events = CountingExecutor(answers), []
    assert gold_match(ex.execute, ["a", "b", "c"], "gold", [("db1", None)],
                      stop=False, report=events.append) is None
    assert ex.calls == [("gold", "db1"), ("a", "db1"), ("b", "db1"), ("c", "db1")]
    golds, *failing = events
    assert golds[0].denotation == Denotation(1, [(1,)]) and failing == [0, 2]
    # with stop: the golds are reported too, and the loop ends at the first
    # match, whose index is the result
    ex, events = CountingExecutor(answers), []
    assert gold_match(ex.execute, ["a", "b", "c"], "gold", [("db1", None)],
                      report=events.append) == 1
    assert ex.calls == [("gold", "db1"), ("a", "db1"), ("b", "db1")]
    assert len(events) == 1 and events[0][0].denotation == Denotation(1, [(1,)])
    # the golds are reported with no candidates, and not when none ran
    for tests, reported in (([("db1", None)], 1), ([("db1", Denotation(1, [(1,)]))], 0)):
        ex, events = CountingExecutor(answers), []
        assert gold_match(ex.execute, [], "gold", tests, report=events.append) is None
        assert len(events) == reported
    # a gold that fails is reported and runs no candidate
    for stop in (False, True):
        ex, events = CountingExecutor({("gold", "db1"): None}), []
        assert gold_match(ex.execute, ["a"], "gold", [("db1", None)],
                          stop=stop, report=events.append) is None
        assert ex.calls == [("gold", "db1")]
        assert len(events) == 1 and events[0][0].status == "error"


def test_the_memo_runs_a_query_once_per_file_and_limit():
    ex = CountingExecutor({("SELECT 1", "file"): [(1,)], ("SELECT nope", "file"): None,
                           ("SELECT 1", "built"): [(1,)]})
    memos = {"file": OutcomeMemo()}
    remembered = memoized(ex.execute, memos, set())
    for _ in range(3):
        assert remembered("SELECT 1", "file", 5.0).denotation.rows == [(1,)]
        assert remembered("SELECT nope", "file", 5.0).message == "no such column"
    assert ex.calls == [("SELECT 1", "file"), ("SELECT nope", "file")]
    # the limit is part of the key, and a database without a memo (a built
    # one, or one that did not open) runs the query each time
    remembered("SELECT 1", "file", 0.5)
    remembered("SELECT 1", "built", 5.0)
    remembered("SELECT 1", "built", 5.0)
    assert ex.calls[2:] == [("SELECT 1", "file")] + [("SELECT 1", "built")] * 2
    assert memos["file"].cells == 2 * (1 + 1) + 1  # one per outcome, plus its cells
    assert list(memos) == ["file"]


def test_the_memo_keeps_no_timeout_and_no_volatile_query():
    outcomes = [ExecutionOutcome("timeout"),
                ExecutionOutcome("success", denotation=Denotation(1, [(7,)]))]
    remembered = memoized(lambda sql, db, limit: outcomes.pop(0), {"file": OutcomeMemo()},
                          set())
    assert remembered("SELECT 7", "file", 0.1).status == "timeout"
    assert remembered("SELECT 7", "file", 0.1).ok  # runs again after a timeout
    assert remembered("SELECT 7", "file", 0.1).ok and outcomes == []  # then is remembered
    # each query with the _VOLATILE function the worker's authorizer reports
    # for it; "SELECT 8" reaches none, and runs after them
    volatile = {"SELECT RANDOM() % 7": "random",
                "SELECT 1 WHERE date('now') > '2000'": "date",
                "SELECT 2 WHERE CURRENT_TIMESTAMP IS NOT NULL": "current_timestamp",
                "SELECT 3, changes()": "changes", "SELECT 4, \"randomblob\"(2)": "randomblob",
                "SELECT 5 WHERE sleep_now(0) IS NULL": "sleep_now",
                "SELECT 6 FROM t WHERE crash_now()": "crash_now"}
    ex = CountingExecutor({(sql, "file"): [(1,)] for sql in [*volatile, "SELECT 8"]})
    reached = set()

    def run(sql, db, limit):
        reached.update([volatile[sql]] if sql in volatile else [])
        return ex.execute(sql, db, limit)

    remembered = memoized(run, {"file": OutcomeMemo()}, reached)
    for sql in [*volatile, *volatile, "SELECT 8", "SELECT 8"]:
        remembered(sql, "file", 5.0)
    assert [sql for sql, _ in ex.calls] == [*volatile, *volatile, "SELECT 8"]


def test_the_memo_runs_gold_once_across_requests():
    # under the test-suite criterion the original DB comes without gold's
    # denotation, and each request ran gold there again
    ex = CountingExecutor({("gold", "original"): [(2,)], ("a", "original"): [(1,)],
                           ("b", "original"): [(2,)], ("b", "suite_db"): [(2,)]})
    remembered = memoized(ex.execute, {"original": OutcomeMemo(), "suite_db": OutcomeMemo()},
                          set())
    tests = [("original", None), ("suite_db", Denotation(1, [(2,)]))]
    for _ in range(2):
        assert gold_match(lambda sql, db: remembered(sql, db, 5.0), ["a", "b"], "gold",
                          tests) == 1
    assert ex.calls == [("gold", "original"), ("a", "original"), ("b", "original"),
                        ("b", "suite_db")]


def test_a_live_worker_remembers_no_timeout_no_random_and_no_built_database(tmp_path):
    schema = Schema(tables=[Table("t", [("x", "integer")])])
    db = DatabaseInstance(schema, {"t": [(1,)]})
    path = db.to_sqlite(tmp_path / "t.sqlite")
    count = ("WITH RECURSIVE c(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM c "
             "WHERE n < 2000000) SELECT count(*) FROM c, t")
    with QueryExecutor(time_limit=5.0) as ex:
        assert ex.execute(count, path, time_limit=0.05).status == "timeout"
        assert ex.execute(count, path).denotation.rows == [(2000000,)]
        draws = {ex.execute("SELECT random() FROM t", path).denotation.rows[0] for _ in range(2)}
        assert len(draws) == 2
        # a database without a file is built from its rows in each request
        for rows in ([(1,)], [(2,)]):
            db.tables["t"] = rows
            assert ex.execute("SELECT x FROM t", db).denotation.rows == rows


def test_a_live_worker_remembers_no_volatile_function_reached_through_a_view(tmp_path):
    # the query names no function; SQLite reports the view's random() to the
    # authorizer only when it prepares the statement
    path = tmp_path / "v.sqlite"
    with closing(sqlite3.connect(path)) as con:
        con.executescript("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1);"
                          "CREATE VIEW v AS SELECT random() AS r FROM t;")
    with QueryExecutor(time_limit=5.0) as ex:
        draws = {ex.execute("select r from v", path).denotation.rows[0] for _ in range(2)}
    assert len(draws) == 2


def _rewrite_in_place(path, x):
    """Change t's one row without changing the file's inode, mtime or size."""
    st = os.stat(path)
    with closing(sqlite3.connect(path)) as con:
        con.execute("UPDATE t SET x = ?", (x,))
        con.commit()
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (
        st.st_ino, st.st_mtime_ns, st.st_size)


def test_the_memo_is_as_fresh_as_the_file_check_and_empties_past_its_budget(
        tmp_path, monkeypatch):
    monkeypatch.setattr(executor_module, "_MEMO_CELLS", 3)  # the worker forks with it
    schema = Schema(tables=[Table("t", [("x", "integer")])])
    path = DatabaseInstance(schema, {"t": [(1,)]}).to_sqlite(tmp_path / "t.sqlite")
    with QueryExecutor(time_limit=5.0) as ex:
        assert ex.execute("SELECT x FROM t", path).denotation.rows == [(1,)]  # 2 cells
        _rewrite_in_place(path, 2)
        # the file check sees the same file, so the memo answers
        assert ex.execute("SELECT x FROM t", path).denotation.rows == [(1,)]
        assert ex.execute("SELECT x, x FROM t", path).denotation.rows == [(2, 2)]  # 5 cells
        # past the budget, the next request finds the worker's memos emptied
        assert ex.execute("SELECT x FROM t", path).denotation.rows == [(2,)]
