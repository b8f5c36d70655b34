"""End-to-end acceptance suite.

Each test locks in one qualitative or quantitative property of the whole
pipeline: exact search, sampling without replacement, criterion-guided
selection, suite construction quality, executor robustness, and run
determinism.
"""

import json
import math
import time

import numpy as np
import pytest

from guidedsql.cli import main
from guidedsql.criteria import (
    ExecutionCriterion,
    MethodConfig,
    OneTestCriterion,
    QuestionContext,
    SuiteTestCriterion,
    check,
    guided_search,
)
from guidedsql.executor import DatabaseInstance, QueryExecutor
from guidedsql.metrics import execution_accuracy
from guidedsql.metrics import test_suite_accuracy as suite_accuracy
from guidedsql.parser import parse
from guidedsql.scorer import EOS, Scorer, TableScorer, Vocabulary, tokenize_sql
from guidedsql.search import (
    SCHEDULE_PRESETS,
    CabSchedule,
    SamplerState,
    beam_search,
    cab_search,
    greedy_decode,
    topk_sample,
)
from guidedsql.schema import ColumnId, Schema, Table
from guidedsql.testsuite import NeighborSet, SuiteConfig, build_suite, generate_neighbors, suite_stats

from test_search import RandomScorer, enumerate_sequences, first_where


# ---------------------------------------------------------------------------
# 1. Search exactness against a brute-force enumeration oracle
# ---------------------------------------------------------------------------


def test_01_beam_search_is_exact_on_toy_scorers():
    start = time.monotonic()
    for seed in range(10):
        scorer = RandomScorer(seed, vocab_tokens=("a", "b", "c", "d"), max_length=4)
        oracle = enumerate_sequences(scorer)
        hyps = beam_search(scorer, beam_size=len(oracle), width=len(scorer.vocab))
        assert [h.tokens for h in hyps] == [seq for seq, _ in oracle]
        for hyp, (_, logprob) in zip(hyps, oracle):
            assert hyp.logprob == pytest.approx(logprob)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Degeneration to greedy decoding
# ---------------------------------------------------------------------------


def test_02_cab_and_topk_degenerate_to_greedy():
    for seed in range(100):
        scorer = RandomScorer(seed)
        greedy = greedy_decode(scorer, temperature=1.0)
        selected, tested = cab_search(
            scorer, CabSchedule([1], [1]), first_where(lambda h: True), temperature=1.0
        )
        assert selected.tokens == greedy.tokens
        assert [t.tokens for t in tested] == [greedy.tokens]
        sample = topk_sample(scorer, k=1, num_samples=1, temperature=1.0, seed=seed)
        assert sample[0].tokens == greedy.tokens
        assert sample[0].logprob == pytest.approx(greedy.logprob)


# ---------------------------------------------------------------------------
# 3. Sampling without replacement follows the residual-mass distribution
# ---------------------------------------------------------------------------


def test_03_unique_sampling_matches_residual_distribution():
    probs = {("a",): 0.6, ("b",): 0.3, ("c",): 0.1}
    scorer = TableScorer(probs)
    n_states = 34_000  # 3 draws per state: > 1e5 draws total
    first_counts = {seq: 0 for seq in probs}
    second_counts = {(f, s): 0 for f in probs for s in probs if f != s}
    for seed in range(n_states):
        state = SamplerState(scorer, seed=seed)
        drawn = []
        while True:
            hyp = state.draw()
            if hyp is None:
                break
            drawn.append(hyp.tokens)
        assert len(drawn) == 3
        assert len(set(drawn)) == 3  # no duplicates within a state
        first_counts[drawn[0]] += 1
        second_counts[(drawn[0], drawn[1])] += 1

    def within_3_sigma(observed, n, p):
        sigma = math.sqrt(n * p * (1 - p))
        return abs(observed - n * p) <= 3 * sigma

    # first draws follow the original distribution
    for seq, p in probs.items():
        assert within_3_sigma(first_counts[seq], n_states, p), (seq, first_counts)
    # second draws follow the renormalized residual given the first
    for first, p_first in probs.items():
        group = first_counts[first]
        for second, p_second in probs.items():
            if second == first:
                continue
            conditional = p_second / (1 - p_first)
            observed = second_counts[(first, second)]
            assert within_3_sigma(observed, group, conditional), (
                first, second, observed, group,
            )


# ---------------------------------------------------------------------------
# 4. CAB recovers a target planted at a known rank
# ---------------------------------------------------------------------------


class ChainScorer(Scorer):
    """P(a)=0.7 at every step, so the rank-r sequence is a^(r-1)."""

    def __init__(self, max_length: int = 900):
        self.vocab = Vocabulary(["a", EOS])
        self.max_length = max_length
        self._dist = np.array([0.7, 0.3])

    def next_distribution(self, prefix):
        return self._dist


def test_04_cab_finds_planted_rank_iff_some_stage_beam_reaches_it():
    start = time.monotonic()
    scorer = ChainScorer()
    schedule = SCHEDULE_PRESETS["t5"]
    for rank in (1, 7, 50, 500):
        target = ("a",) * (rank - 1)
        for cap in schedule.beam_sizes:
            found, _ = cab_search(
                scorer, schedule.capped(cap), first_where(lambda h: h.tokens == target)
            )
            if cap >= rank:
                assert found is not None and found.tokens == target, (rank, cap)
            else:
                assert found is None, (rank, cap)
    # a rank beyond every stage is never found
    beyond = ("a",) * 800
    found, _ = cab_search(scorer, schedule, first_where(lambda h: h.tokens == beyond))
    assert found is None
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# Shared synthetic corpus with planted false positives (criteria 5, 6, 8)
# ---------------------------------------------------------------------------

N_QUESTIONS = 50
N_PLANTED = 10


def _corpus_schema() -> Schema:
    return Schema(
        tables=[Table("t", [("id", "integer"), ("x", "integer"), ("y", "text")])],
        primary_keys=[ColumnId("t", "id")],
    )


@pytest.fixture(scope="module")
def planted_corpus():
    """50 questions over one table; for 10 of them the scorer ranks a false
    positive (>= instead of >) above the gold query, and the two agree on
    the original database."""
    schema = _corpus_schema()
    original = DatabaseInstance(
        schema=schema,
        tables={"t": [(i, 2 + 10 * i, f"w{i}") for i in range(8)]},  # x even: 2..72
    )
    questions = []
    for i in range(N_QUESTIONS):
        constant = 3 + 2 * (i % 25)  # odd, never equal to any original x
        gold = f"select y from t where x > {constant}"
        planted = i < N_PLANTED
        if planted:
            false_positive = f"select y from t where x >= {constant}"
            scorer = TableScorer({
                tuple(tokenize_sql(false_positive)): 0.6,
                tuple(tokenize_sql(gold)): 0.4,
            })
        else:
            scorer = TableScorer({tuple(tokenize_sql(gold)): 1.0})
        questions.append({"id": f"q{i:02d}", "gold": gold, "scorer": scorer,
                          "planted": planted})

    config = SuiteConfig(max_dbs=3, max_attempts=40, nonempty_attempts=20,
                         row_cap=16, seed=11)
    with QueryExecutor(time_limit=10.0) as executor:
        for q in questions:
            gold_ast = parse(q["gold"], schema)
            neighbors = generate_neighbors(gold_ast, schema, 10, seed=1)
            q["suite"] = build_suite(gold_ast, neighbors, schema, config, executor,
                                     original=original, query_id=q["id"])
        yield {"schema": schema, "original": original, "questions": questions,
               "executor": executor}


# ---------------------------------------------------------------------------
# 5. Criterion strength is monotone over every tested candidate
# ---------------------------------------------------------------------------


def test_05_criterion_monotonicity_has_zero_violations(planted_corpus):
    schema = planted_corpus["schema"]
    executor = planted_corpus["executor"]
    original = planted_corpus["original"]
    ctx = QuestionContext(schema, executor, original, time_limit=5.0)
    checked = 0
    for q in planted_corpus["questions"]:
        gold_out = executor.execute(q["gold"], original)
        assert gold_out.ok
        one_test = OneTestCriterion(original, gold_out.denotation)
        suite_test = SuiteTestCriterion(q["suite"])
        for tokens in q["scorer"].sequences():
            candidate = " ".join(tokens)
            suite_pass = check(suite_test, candidate, ctx)
            one_pass = check(one_test, candidate, ctx)
            exec_pass = check(ExecutionCriterion(), candidate, ctx)
            assert not suite_pass or one_pass, candidate
            assert not one_pass or exec_pass, candidate
            checked += 1
    assert checked >= N_QUESTIONS + N_PLANTED


# ---------------------------------------------------------------------------
# 6. One-test guidance keeps false positives that suite guidance rejects
# ---------------------------------------------------------------------------


def _run_guided(planted_corpus, criterion_name, method):
    schema = planted_corpus["schema"]
    executor = planted_corpus["executor"]
    original = planted_corpus["original"]
    results = []
    for q in planted_corpus["questions"]:
        ctx = QuestionContext(schema, executor, original, time_limit=5.0)
        if criterion_name == "one-test":
            gold_out = executor.execute(q["gold"], original)
            criterion = OneTestCriterion(original, gold_out.denotation)
        else:
            criterion = SuiteTestCriterion(q["suite"])
        verdict = guided_search(ctx, q["scorer"], method, criterion, q["id"])
        ex = execution_accuracy(q["gold"], verdict.selected, original, executor)
        ts = suite_accuracy(q["gold"], verdict.selected, q["suite"], executor,
                                 original_db=original)
        results.append((verdict, ex, ts))
    return results


def test_06_one_test_passes_execution_but_fails_suites(planted_corpus):
    method = MethodConfig(method="cab", schedule=CabSchedule([1, 4], [1, 4]))
    one_test = _run_guided(planted_corpus, "one-test", method)
    suite_guided = _run_guided(planted_corpus, "suite", method)

    ex_one = sum(ex for _, ex, _ in one_test) / N_QUESTIONS
    ts_one = sum(ts for _, _, ts in one_test) / N_QUESTIONS
    ts_suite = sum(ts for _, _, ts in suite_guided) / N_QUESTIONS

    assert ex_one == 1.0  # every selection matches gold on the original DB
    assert ts_one < 1.0  # the planted false positives slip through
    assert ts_suite > ts_one  # suite guidance rejects them


# ---------------------------------------------------------------------------
# 7. Suite quality on the 30-query fixture corpus
# ---------------------------------------------------------------------------


def test_07_suite_quality_on_fixture_corpus(fixtures, executor):
    start = time.monotonic()
    config = SuiteConfig(max_dbs=5, max_attempts=80, nonempty_attempts=30,
                         row_cap=100, seed=17)
    suites = []
    heldout_sets = []
    for i, (schema, original, sql) in enumerate(fixtures):
        gold = parse(sql, schema)
        construction = generate_neighbors(gold, schema, 12, seed=config.seed)
        suite = build_suite(gold, construction, schema, config, executor,
                            original=original, query_id=f"q{i:02d}")
        pool = generate_neighbors(gold, schema, 60, seed=config.seed + 7919)
        taken = set(construction.texts())
        heldout = [n for n, t in zip(pool.neighbors, pool.texts())
                   if t not in taken][:8]
        suites.append(suite)
        heldout_sets.append(NeighborSet(gold, heldout, config.seed + 7919))
    stats = suite_stats(suites, heldout_sets, executor)
    elapsed = time.monotonic() - start

    assert len(suites) == 30
    assert stats.no_empty_pct >= 95.0, stats.to_json()
    assert stats.cover_pct >= 95.0, stats.to_json()
    assert stats.avg_tests <= 5.0, stats.to_json()
    assert stats.total_size_bytes < 10 * 1024 * 1024, stats.to_json()
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 8. Suite accuracy is monotone in the maximum beam size
# ---------------------------------------------------------------------------


def test_08_suite_accuracy_monotone_in_beam_cap(planted_corpus):
    schedule = SCHEDULE_PRESETS["t5"]
    curve = []
    for cap in (1, 10, 100, 800):
        method = MethodConfig(method="cab", schedule=schedule.capped(cap))
        results = _run_guided(planted_corpus, "suite", method)
        curve.append(sum(ts for _, _, ts in results) / N_QUESTIONS)
    assert curve == sorted(curve), curve
    assert curve[-1] > curve[0]  # larger beams recover the planted golds


# ---------------------------------------------------------------------------
# 9. Executor robustness in a large mixed batch
# ---------------------------------------------------------------------------


def test_09_executor_survives_crashes_and_timeouts():
    schema = _corpus_schema()
    db = DatabaseInstance(
        schema=schema, tables={"t": [(i, i, f"w{i}") for i in range(8)]}
    )
    heavy = ("SELECT count(*) FROM " +
             ", ".join(f"t a{i}" for i in range(10)))  # 8^10 rows to scan
    crash_at = {100, 300, 500, 700, 900}
    timeout_at = {150, 350, 550, 750, 950}
    limit = 0.3
    bad = 0
    with QueryExecutor(time_limit=5.0, enable_test_functions=True) as ex:
        for i in range(1000):
            if i in crash_at:
                out = ex.execute("SELECT crash_now()", db)
                assert out.status == "error"
                bad += 1
            elif i in timeout_at:
                out = ex.execute(heavy, db, time_limit=limit)
                assert out.status == "timeout"
                assert out.wall_time < limit + 0.5
                bad += 1
            else:
                out = ex.execute("SELECT count(*) FROM t WHERE x >= 0", db)
                assert out.ok and out.denotation.rows == [(8,)]
    assert bad == 10


# ---------------------------------------------------------------------------
# 10. Search and evaluation runs are byte-deterministic
# ---------------------------------------------------------------------------


def test_10_runs_are_byte_identical(tmp_path):
    import yaml

    from conftest import make_concert_db, make_concert_schema, write_dataset

    schema = make_concert_schema()
    examples = [
        ("concert", "select name from singer where age > 30"),
        ("concert", "select count(*) from singer where age >= 25"),
        ("concert", "select venue from concert where attendance > 500"),
        ("concert", "select name from singer order by age desc limit 3"),
        ("concert", "select max(attendance) from concert where year = 2015"),
    ]
    data_root = tmp_path / "dataset"
    write_dataset(data_root, examples, {"concert": schema},
                  {"concert": make_concert_db(schema)})

    outputs = []
    for run in ("run1", "run2"):
        out_dir = tmp_path / run
        config = {
            "dataset": {
                "examples": str(data_root / "examples.json"),
                "tables": str(data_root / "tables.json"),
                "databases": str(data_root / "database"),
            },
            "output_dir": str(out_dir),
            "time_limit": 5.0,
            "criterion": "one-test",
            "search": {"schedule": {"beam_sizes": [2, 8], "widths": [2, 3]},
                       "seed": 5},
        }
        cfg_path = tmp_path / f"{run}.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        assert main(["-c", str(cfg_path), "search"]) == 0
        assert main(["-c", str(cfg_path), "evaluate"]) == 0
        outputs.append((
            (out_dir / "verdicts.jsonl").read_bytes(),
            (out_dir / "report.json").read_bytes(),
            (out_dir / "report.txt").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
