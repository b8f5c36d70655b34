import pytest
from hypothesis import given
from hypothesis import strategies as st

from guidedsql.executor import (
    DatabaseInstance,
    Denotation,
    ExecutionOutcome,
    QueryExecutor,
    compare,
    has_top_level_order_by,
    is_empty_output,
    matches_gold,
    normalize_cell,
)
from guidedsql.parser import parse


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


def test_has_top_level_order_by():
    assert has_top_level_order_by("select a from t order by a")
    assert not has_top_level_order_by("select a from t")
    assert not has_top_level_order_by(
        "select a from t where b in (select b from t order by b limit 1)"
    )
    assert not has_top_level_order_by("select a from t where c = 'order by'")


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
    # the optional stricter reading of COUNT(...) = 1
    assert not is_empty_output(Denotation(1, [(1,)]), agg)
    assert is_empty_output(Denotation(1, [(1,)]), agg, count_one_as_empty=True)


class CountingExecutor:
    """Fake executor: answers from a {(sql, db): rows or None} table, where
    None is an error, and records every call."""

    def __init__(self, answers):
        self.answers = answers
        self.calls = []

    def execute(self, sql, db, time_limit=None):
        self.calls.append((sql, db))
        rows = self.answers[(sql, db)]
        if rows is None:
            return ExecutionOutcome("error", message="no such column")
        return ExecutionOutcome("success", denotation=Denotation(1, rows))


def test_matches_gold_runs_gold_lazily_after_the_candidate():
    ex = CountingExecutor({("cand", "db1"): [(1,)], ("gold", "db1"): [(1,)],
                           ("cand", "db2"): [(2,)]})
    tests = [("db1", None), ("db2", Denotation(1, [(2,)]))]
    assert matches_gold(ex, "cand", "gold", tests, None)
    assert ex.calls == [("cand", "db1"), ("gold", "db1"), ("cand", "db2")]


def test_matches_gold_failing_candidate_never_runs_gold():
    ex = CountingExecutor({("cand", "db1"): None})
    assert not matches_gold(ex, "cand", "gold", [("db1", None), ("db2", None)], None)
    assert ex.calls == [("cand", "db1")]


def test_matches_gold_gold_error_and_mismatch_fail():
    ex = CountingExecutor({("cand", "db1"): [(1,)], ("gold", "db1"): None})
    assert not matches_gold(ex, "cand", "gold", [("db1", None)], None)
    ex = CountingExecutor({("cand", "db1"): [(1,)], ("cand", "db2"): [(3,)]})
    tests = [("db1", Denotation(1, [(2,)])), ("db2", Denotation(1, [(3,)]))]
    assert not matches_gold(ex, "cand", "gold", tests, None)
    assert ex.calls == [("cand", "db1")]


def test_matches_gold_no_tests_passes():
    ex = CountingExecutor({})
    assert matches_gold(ex, "cand", "gold", [], None)
    assert ex.calls == []
