import pytest

from guidedsql.criteria import (
    ColumnMatchCriterion,
    ExecutionCriterion,
    MethodConfig,
    OneTestCriterion,
    QuestionContext,
    SearchVerdict,
    SuiteTestCriterion,
    check,
    guided_search,
)
from guidedsql.parser import parse
from guidedsql.query_ast import column_signature
from guidedsql.scorer import TableScorer, tokenize_sql
from guidedsql.search import CabSchedule
from guidedsql.testsuite import SuiteConfig, build_suite, generate_neighbors


@pytest.fixture
def ctx(concert_schema, concert_db, executor):
    return QuestionContext(concert_schema, executor, concert_db, time_limit=5.0)


def seq(sql):
    return tuple(tokenize_sql(sql))


def test_execution_criterion(ctx):
    assert check(ExecutionCriterion(), "select name from singer", ctx)
    assert not check(ExecutionCriterion(), "select nope from singer", ctx)
    assert not check(ExecutionCriterion(), "garbage text", ctx)


def test_column_match_criterion(ctx, concert_schema):
    gold = parse("select name, age from singer where age > 30", concert_schema)
    crit = ColumnMatchCriterion(column_signature(gold))
    # different row set, aliases and select order are all fine
    assert check(crit, "select s.age, s.name from singer as s", ctx)
    assert not check(crit, "select name from singer", ctx)
    assert not check(crit, "not sql at all", ctx)


def test_column_match_without_executability(ctx, concert_schema):
    gold = parse("select max(attendance) from concert", concert_schema)
    # pure column match only needs parse-and-resolve; rows never matter
    crit = ColumnMatchCriterion(column_signature(gold))
    assert check(crit, "select max(attendance) from concert where year > 9999", ctx)


def test_one_test_criterion(ctx, concert_db, executor):
    gold_out = executor.execute("select name from singer where age > 30", concert_db)
    crit = OneTestCriterion(concert_db, gold_out.denotation)
    # same denotation through a different query
    assert check(crit, "select name from singer where age >= 31", ctx)
    assert not check(crit, "select name from singer", ctx)
    assert not check(crit, "select nope from singer", ctx)


def test_suite_test_includes_original_db(ctx, concert_schema, executor):
    gold = parse("select name from singer where age > 30", concert_schema)
    neighbors = generate_neighbors(gold, concert_schema, count=8, seed=0)
    suite = build_suite(
        gold, neighbors, concert_schema,
        SuiteConfig(max_dbs=3, max_attempts=60, nonempty_attempts=30,
                    row_cap=24, seed=3),
        executor, original=ctx.database,
    )
    crit = SuiteTestCriterion(suite)
    assert check(crit, "select name from singer where age > 30", ctx)
    # matches on the original db (no singer aged exactly 30) but the suite
    # databases contain the boundary value
    boundary = "select name from singer where age >= 30"
    assert check(OneTestCriterion(
        ctx.database,
        executor.execute(suite.gold_query, ctx.database).denotation), boundary, ctx)
    assert not check(crit, boundary, ctx)


def test_method_config_schedule_and_budget():
    cfg = MethodConfig(method="cab", schedule="t5")
    assert cfg.resolved_schedule().beam_sizes == [2, 10, 100, 800]
    explicit = MethodConfig(schedule=CabSchedule([1, 4], [1, 2]))
    assert explicit.resolved_schedule().beam_sizes == [1, 4]


def test_guided_search_selects_passing_candidate(ctx):
    good = "select name from singer where age > 30"
    bad = "select broken from nowhere"
    sc = TableScorer({seq(bad): 0.7, seq(good): 0.3})
    cfg = MethodConfig(method="cab", schedule=CabSchedule([1, 2], [1, 2]))
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.selected == good
    assert verdict.criterion_passed and not verdict.fallback_used
    assert verdict.hypotheses_tested == 2


def test_guided_search_falls_back_to_greedy(ctx):
    bad1 = "select broken from nowhere"
    bad2 = "select also broken"
    sc = TableScorer({seq(bad1): 0.7, seq(bad2): 0.3})
    cfg = MethodConfig(method="cab", schedule=CabSchedule([1, 2], [1, 2]))
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.fallback_used and not verdict.criterion_passed
    assert verdict.selected == bad1  # greedy decode


def test_guided_search_memoizes_duplicate_texts(ctx):
    good = "select name from singer"
    sc = TableScorer({seq(good): 1.0})
    cfg = MethodConfig(method="cab", schedule=CabSchedule([1, 2, 3], [1, 2, 3]))
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.hypotheses_tested == 1


@pytest.mark.parametrize("method", ["cab", "topk", "topp", "unique"])
def test_all_methods_find_sole_valid_candidate(ctx, method):
    good = "select name from singer"
    sc = TableScorer({seq(good): 1.0})
    cfg = MethodConfig(method=method, schedule=CabSchedule([1, 8], [1, 4]),
                       k=5, p=0.95, seed=0)
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.selected == good and verdict.criterion_passed


def test_unknown_method_rejected(ctx):
    sc = TableScorer({seq("select name from singer"): 1.0})
    with pytest.raises(ValueError):
        guided_search(ctx, sc, MethodConfig(method="dfs"), ExecutionCriterion())


def test_verdict_json_excludes_wall_time():
    verdict = SearchVerdict("q1", "select 1", True, False, 3, wall_time=1.23)
    data = verdict.to_json()
    assert "wall_time" not in data
    assert data["question_id"] == "q1" and data["hypotheses_tested"] == 3
