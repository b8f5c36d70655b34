import json

from guidedsql.metrics import (
    EvalRecord,
    RunReport,
    exact_set_match,
    exact_set_match_text,
    execution_accuracy,
)
from guidedsql.metrics import test_suite_accuracy as suite_accuracy
from guidedsql.parser import parse
from guidedsql.testsuite import SuiteConfig, build_suite, generate_neighbors


def esm(schema, a, b):
    return exact_set_match(parse(a, schema), parse(b, schema))


def test_exact_set_match_ignores_literal_values(concert_schema):
    assert esm(concert_schema,
               "select name from singer where age > 30",
               "select name from singer where age > 99")
    assert not esm(concert_schema,
                   "select name from singer where age > 30",
                   "select name from singer where age >= 30")


def test_exact_set_match_clause_order_insensitive(concert_schema):
    assert esm(concert_schema,
               "select name, age from singer where age > 30 and country = 'US'",
               "select age, name from singer where country = 'FR' and age > 1")


def test_exact_set_match_order_by_stays_ordered(concert_schema):
    assert not esm(concert_schema,
                   "select name from singer order by age asc",
                   "select name from singer order by age desc")
    assert not esm(concert_schema,
                   "select name, age from singer order by age, name",
                   "select name, age from singer order by name, age")


def test_exact_set_match_limit_presence_only(concert_schema):
    assert esm(concert_schema,
               "select name from singer limit 3",
               "select name from singer limit 5")
    assert not esm(concert_schema,
                   "select name from singer limit 3",
                   "select name from singer")


def test_exact_set_match_aliases_are_invisible(concert_schema):
    assert esm(
        concert_schema,
        "select t1.name from singer as t1 join concert as t2 "
        "on t1.singer_id = t2.singer_id",
        "select singer.name from singer join concert "
        "on concert.singer_id = singer.singer_id",
    )


def test_exact_set_match_distinguishes_structure(concert_schema):
    assert not esm(concert_schema,
                   "select name from singer",
                   "select distinct name from singer")
    assert not esm(concert_schema,
                   "select country, count(*) from singer group by country",
                   "select country, count(*) from singer group by age")


def test_exact_set_match_text_handles_parse_failure(concert_schema):
    assert not exact_set_match_text(
        "select name from singer", "complete garbage", concert_schema
    )
    # SQLite rejects an unterminated literal, so EM must not match it
    assert not exact_set_match_text(
        "select name from singer where country = 'US'",
        "select name from singer where country = '", concert_schema
    )


def test_execution_accuracy(concert_schema, concert_db, executor):
    assert execution_accuracy(
        "select name from singer where age > 30",
        "select name from singer where age >= 31",
        concert_db, executor,
    )
    assert not execution_accuracy(
        "select name from singer where age > 30",
        "select name from singer",
        concert_db, executor,
    )
    assert not execution_accuracy(
        "select name from singer", "select broken from", concert_db, executor
    )


def test_test_suite_accuracy(concert_schema, concert_db, executor):
    gold = "select name from singer where age > 30"
    gold_ast = parse(gold, concert_schema)
    neighbors = generate_neighbors(gold_ast, concert_schema, 8, seed=0)
    suite = build_suite(
        gold_ast, neighbors, concert_schema,
        SuiteConfig(max_dbs=3, max_attempts=60, nonempty_attempts=30,
                    row_cap=24, seed=9),
        executor, original=concert_db,
    )
    assert suite_accuracy(gold, gold, suite, executor, original_db=concert_db)
    # passes on the original db alone, but the suite has the boundary case
    near_miss = "select name from singer where age >= 30"
    assert execution_accuracy(gold, near_miss, concert_db, executor)
    assert not suite_accuracy(gold, near_miss, suite, executor,
                                   original_db=concert_db)


def test_run_report_accuracies_and_render():
    report = RunReport([
        EvalRecord("q0", "g", "p", True, True, True),
        EvalRecord("q1", "g", "p", False, True, False, fallback_used=True),
        EvalRecord("q2", "g", "p", False, False, None),
        EvalRecord("q3", "g", "p", True, True, True),
    ])
    assert report.accuracy("em") == 0.5
    assert report.accuracy("ex") == 0.75
    assert report.accuracy("ts") == 2 / 3  # None records excluded
    assert report.fallback_count() == 1
    data = report.to_json()
    assert data["total"] == 4 and data["suite_unavailable"] == 1
    assert json.loads(report.dumps())["execution_accuracy"] == 0.75
    rendered = report.render()
    assert "subset-EM" in rendered and "50.0%" in rendered


def test_run_report_empty():
    report = RunReport()
    assert report.accuracy("em") == 0.0
    assert report.accuracy("ts") == 0.0
