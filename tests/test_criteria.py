import pytest

from conftest import FIXTURE_QUERIES
from guidedsql.criteria import (
    ColumnMatchCriterion,
    ExecutionCriterion,
    MethodConfig,
    OneTestCriterion,
    QuestionContext,
    SuiteTestCriterion,
    check,
    guided_search,
)
from guidedsql.executor import compare
from guidedsql.parser import parse
from guidedsql.query_ast import column_signature
from guidedsql.scorer import NgramScorer, TableScorer, tokenize_sql
from guidedsql.search import (
    CabSchedule,
    SamplerState,
    beam_search,
    greedy_decode,
    topk_sample,
    topp_sample,
    unique_randomizer_sample,
)
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
    assert not check(crit, "select name, age from singer where country = '", ctx)
    assert not check(crit, "select name, age from singer where singer_id in"
                           " (select singer_id from concert where year = 1 2)", ctx)


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
    assert verdict.accepted_stage == 1


def test_guided_search_falls_back_to_greedy(ctx):
    bad1 = "select broken from nowhere"
    bad2 = "select also broken"
    sc = TableScorer({seq(bad1): 0.7, seq(bad2): 0.3})
    cfg = MethodConfig(method="cab", schedule=CabSchedule([1, 2], [1, 2]))
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.fallback_used and not verdict.criterion_passed
    assert verdict.selected == bad1  # greedy decode
    assert verdict.accepted_stage is None and verdict.to_json()["accepted_stage"] is None


def test_guided_search_memoizes_duplicate_texts(ctx):
    good = "select name from singer"
    sc = TableScorer({seq(good): 1.0})
    cfg = MethodConfig(method="cab", schedule=CabSchedule([1, 2, 3], [1, 2, 3]))
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.hypotheses_tested == 1


def test_guided_search_checks_a_text_once_across_stages(ctx):
    # two token sequences with one text: the second is not checked again
    bad, good = "select nope from singer", "select name from singer"
    sc = TableScorer({(bad,): 0.5, tuple(bad.split()): 0.3, (good,): 0.2})
    cfg = MethodConfig(method="cab", schedule=CabSchedule([1, 3], [1, 3]))
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.selected == good and verdict.hypotheses_tested == 2


@pytest.mark.parametrize("method", ["cab", "topk", "topp", "unique"])
def test_all_methods_find_sole_valid_candidate(ctx, method):
    good = "select name from singer"
    sc = TableScorer({seq(good): 1.0})
    cfg = MethodConfig(method=method, schedule=CabSchedule([1, 8], [1, 4]),
                       k=5, p=0.95, seed=0)
    verdict = guided_search(ctx, sc, cfg, ExecutionCriterion(), "q1")
    assert verdict.selected == good and verdict.criterion_passed
    assert verdict.accepted_stage == 0


def test_unknown_method_rejected(ctx):
    sc = TableScorer({seq("select name from singer"): 1.0})
    with pytest.raises(ValueError):
        guided_search(ctx, sc, MethodConfig(method="dfs"), ExecutionCriterion())


# ---------------------------------------------------------------------------
# Batched checks choose what the per-candidate loop chose
# ---------------------------------------------------------------------------


def _reference_check(criterion, sql, ctx):
    """A criterion checked one query at a time through `execute`, with the
    gold comparison in this process and a missing gold re-run per check."""
    if isinstance(criterion, ExecutionCriterion):
        return ctx.executor.execute(sql, ctx.database, ctx.time_limit).ok
    if isinstance(criterion, OneTestCriterion):
        gold_sql, tests = None, [(criterion.db, criterion.expected)]
    else:
        suite = criterion.suite
        gold_sql = suite.gold_query
        tests = [(ctx.database, None), *zip(suite.databases, suite.gold_denotations)]
    for db, gold in tests:
        outcome = ctx.executor.execute(sql, db, ctx.time_limit)
        if not outcome.ok:
            return False
        if gold is None:
            gold = ctx.executor.execute(gold_sql, db, ctx.time_limit).denotation
        if gold is None or not compare(outcome.denotation, gold):
            return False
    return True


def _reference_guided_search(ctx, scorer, config, criterion):
    """guided_search as a loop that accepts one hypothesis at a time;
    returns (selected, passed, fallback, tested, accepted stage)."""
    memo, tested = {}, 0

    def accept(hyp):
        nonlocal tested
        if hyp.text not in memo:
            tested += 1
            memo[hyp.text] = _reference_check(criterion, hyp.text, ctx)
        return memo[hyp.text]

    schedule = config.resolved_schedule()
    selected = stage = None
    if config.method == "cab":
        seen = set()
        for stage, (beam_size, width) in enumerate(zip(schedule.beam_sizes, schedule.widths)):
            for hyp in beam_search(scorer, beam_size, width, config.temperature):
                if hyp.tokens not in seen:
                    seen.add(hyp.tokens)
                    if accept(hyp):
                        selected = hyp
                        break
            if selected is not None:
                break
    elif config.method in ("topk", "topp"):
        seen = set()
        for stage, count in enumerate(schedule.beam_sizes):
            if config.method == "topk":
                samples = topk_sample(scorer, config.k, count, config.temperature,
                                      config.seed + stage)
            else:
                samples = topp_sample(scorer, config.p, count, config.temperature,
                                      config.seed + stage)
            fresh = []
            for hyp in samples:
                if hyp.text not in seen:
                    seen.add(hyp.text)
                    fresh.append(hyp)
            selected = next((h for h in sorted(fresh, key=lambda h: (-h.logprob, h.tokens))
                             if accept(h)), None)
            if selected is not None:
                break
    else:
        state = SamplerState(scorer, temperature=config.temperature, seed=config.seed)
        selected, drawn = unique_randomizer_sample(
            state, max_iterations=schedule.beam_sizes[-1], criterion=accept)
        stage = len(drawn) - 1
    if selected is not None:
        return selected.text, True, False, tested, stage
    return greedy_decode(scorer, config.temperature).text, False, True, tested, None


EQUIVALENCE_QUESTIONS = [0, 2, 6, 9, 13, 18, 21, 25, 28]


@pytest.fixture(scope="module")
def equivalence_questions(fixtures, executor):
    """(context, scorer, {criterion name: criterion}) per question. One
    scorer is trained on the gold queries of both schemas, so candidates
    also name the other schema's tables and fail to execute."""
    scorer = NgramScorer([tokenize_sql(sql) for _, sql in FIXTURE_QUERIES], max_length=40)
    questions = []
    for i in EQUIVALENCE_QUESTIONS:
        schema, db, gold_sql = fixtures[i]
        gold = parse(gold_sql, schema)
        suite = build_suite(
            gold, generate_neighbors(gold, schema, count=8, seed=i), schema,
            SuiteConfig(max_dbs=3, max_attempts=40, nonempty_attempts=20,
                        row_cap=16, seed=i),
            executor, original=db,
        )
        criteria = {
            "execution": ExecutionCriterion(),
            "one-test": OneTestCriterion(db, executor.execute(gold_sql, db).denotation),
            "suite": SuiteTestCriterion(suite),
        }
        questions.append((QuestionContext(schema, executor, db, 5.0), scorer, criteria))
    return questions


@pytest.mark.parametrize("criterion_name", ["execution", "one-test", "suite"])
@pytest.mark.parametrize("method", ["cab", "topk", "topp", "unique"])
def test_guided_search_equals_per_candidate_loop(equivalence_questions, method,
                                                criterion_name):
    config = MethodConfig(method=method, schedule=CabSchedule([2, 10, 60], [2, 2, 3]),
                          k=5, p=0.9, temperature=0.5, seed=4)
    outcomes = []
    for ctx, scorer, criteria in equivalence_questions:
        criterion = criteria[criterion_name]
        verdict = guided_search(ctx, scorer, config, criterion)
        got = (verdict.selected, verdict.criterion_passed, verdict.fallback_used,
               verdict.hypotheses_tested, verdict.accepted_stage)
        assert got == _reference_guided_search(ctx, scorer, config, criterion)
        outcomes.append(got)
    # the comparison covers acceptance after several rejections as well as
    # the greedy fallback
    assert any(passed and tested > 1 for _, passed, _, tested, _ in outcomes)
    if criterion_name != "execution":
        assert any(fallback for _, _, fallback, _, _ in outcomes)


@pytest.mark.parametrize("method", ["topk", "topp"])
def test_sampled_hypotheses_sharing_a_text_equal_per_candidate_loop(ctx, method):
    # two token tuples print as one passing text, and a failing text scores
    # between them: the text is checked first or second depending on which
    # tuple stands for it, the one a round draws first
    text = "select name from singer"
    higher, lower = (text,), tuple(text.split())
    failing = seq("select nope from singer")
    scorer = TableScorer({higher: 0.5, failing: 0.3, lower: 0.2})
    sample = topk_sample if method == "topk" else topp_sample
    lower_first = False
    for seed in range(20):
        config = MethodConfig(method=method, schedule=CabSchedule([6, 12], [1, 1]),
                              k=3, p=0.9, seed=seed)
        verdict = guided_search(ctx, scorer, config, ExecutionCriterion())
        got = (verdict.selected, verdict.criterion_passed, verdict.fallback_used,
               verdict.hypotheses_tested, verdict.accepted_stage)
        assert got == _reference_guided_search(ctx, scorer, config, ExecutionCriterion())
        knob = config.k if method == "topk" else config.p
        drawn = [h.tokens for h in sample(scorer, knob, 6, config.temperature, seed)]
        lower_first |= (failing in drawn and higher in drawn
                        and lower in drawn[:drawn.index(higher)])
    assert lower_first
