"""The two benchmark workloads and the closed loop that measures them.

Every workload is a single client in a closed loop: the next question
starts only when the previous one has finished. Each calls the library's
public API in-process, the way the `build-suite`, `search` and `evaluate`
commands do, with one `QueryExecutor` worker (the command-line default).

- search-cab-suite: set-up builds the first round's suites (neighbors,
  suite construction, save and held-out stats per question), where fuzzing,
  the parser and executor writes dominate. Each measured question then
  loads its suite and original DB, runs CAB search (schedule t5) under the
  test-suite criterion and is evaluated (EM, EX, TS). Beam bookkeeping,
  scorer calls and executor reads dominate.
- search-unique-onetest: duplicate-free sampling at temperature 0.5 under
  the one-test criterion, with a 50-draw budget, then EM and EX, as
  `evaluate` gives them without suites. The sampler's per-token loop
  dominates and the executor makes one light read per draw against one DB,
  so it is the bypass workload for executor changes, and it builds no
  suites.

search-unique-onetest walks the corpus, so every question of a run is
distinct. search-cab-suite asks the first round's gold queries, the only
ones set-up built suites for, again in every round, each time with the next
gold weight: as with several questions sharing one gold query, every
question still decodes its own distribution.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from guidedsql import criteria, datasets, metrics, parser, testsuite
from guidedsql.cli import _heldout_neighbors
from guidedsql.datasets import Dataset
from guidedsql.executor import QueryExecutor
from guidedsql.search import CabSchedule

import corpus
import verify
from corpus import Inputs, Question

TIME_LIMIT = 30.0  # the command-line default
ROUND = len(corpus.SHAPES)  # questions per round: every shape once
# Rounds every run measures at least: three, as over ten seeds on a shared
# 2-core VM two rounds of 30 questions spread up to 0.22 between runs.
MIN_ROUNDS = 3
NEIGHBORS = 12
HELDOUT_NEIGHBORS = 8
# part of the search-unique-onetest definition: at most 50 draws
UNIQUE_SCHEDULE = CabSchedule([50], [1])
UNIQUE_TEMPERATURE = 0.5


@dataclass
class Built:
    """One question's suite, as `build-suite` makes it, and its held-out stats."""

    suite: testsuite.TestSuite
    heldout: int
    covered: int
    nonempty: bool


@dataclass
class Answered:
    """One question's search-and-evaluate result."""

    verdict: criteria.SearchVerdict
    em: bool
    ex: bool
    ts: bool | None  # None without a suite


@dataclass
class Prepared:
    """The inputs of a workload after set-up."""

    inputs: Inputs
    dataset: Dataset
    executor: QueryExecutor
    suites_dir: Path
    built: list[Built] = field(default_factory=list)


def build_one(prep: Prepared, index: int, executor: QueryExecutor) -> Built:
    """Neighbors, suite, save and held-out stats for one question."""
    example = prep.dataset.examples[index]
    schema = prep.dataset.schema_for(example)
    gold = parser.parse(example.gold_query, schema)
    # Per-question seeds: with one seed for all, a shape's neighbor choice and
    # fuzzed databases repeat in every round, so whether it spins through all
    # fuzz attempts is decided once per run instead of once per question.
    neighbor_seed = prep.inputs.neighbor_seed + index
    neighbors = testsuite.generate_neighbors(gold, schema, NEIGHBORS, seed=neighbor_seed)
    config = testsuite.SuiteConfig(seed=prep.inputs.suite_seed + index, time_limit=TIME_LIMIT)
    suite = testsuite.build_suite(gold, neighbors, schema, config, executor,
                                  original=prep.dataset.database_for(example),
                                  query_id=example.question_id)
    testsuite.save_suite(suite, prep.suites_dir)
    heldout = _heldout_neighbors(gold, schema, neighbors, HELDOUT_NEIGHBORS, neighbor_seed)
    stats = testsuite.suite_stats([suite], [heldout], executor, TIME_LIMIT)
    n = len(heldout.neighbors)
    return Built(suite, n, round(stats.cover_pct * n / 100), stats.no_empty_pct > 0)


def _evaluate(example, schema, selected, original, suite, executor):
    ts = None
    if suite is not None:
        ts = metrics.test_suite_accuracy(example.gold_query, selected, suite, executor,
                                         TIME_LIMIT, original_db=original)
    return (
        metrics.exact_set_match_text(example.gold_query, selected, schema),
        metrics.execution_accuracy(example.gold_query, selected, original, executor, TIME_LIMIT),
        ts,
    )


def _checker(example, answered, original, suite, criterion_dbs):
    v = answered.verdict
    return lambda: verify.check_answer(
        example.question_id, example.gold_query, v.selected, v.criterion_passed,
        criterion_dbs, original, suite, answered.ex, answered.ts)


def search_cab_suite(prep, index, scorer, executor):
    example = prep.dataset.examples[index]
    schema = prep.dataset.schema_for(example)
    suite = testsuite.load_suite(prep.suites_dir / example.question_id, schema)
    original = prep.dataset.database_for(example)
    ctx = criteria.QuestionContext(schema, executor, original, TIME_LIMIT)
    method = criteria.MethodConfig(method="cab", schedule="t5", seed=prep.inputs.sampler_seed)
    verdict = criteria.guided_search(ctx, scorer, method, criteria.SuiteTestCriterion(suite),
                                     question_id=example.question_id)
    answered = Answered(verdict, *_evaluate(example, schema, verdict.selected, original, suite,
                                            executor))
    return answered, _checker(example, answered, original, suite, [original] + suite.databases)


def search_unique_onetest(prep, index, scorer, executor):
    example = prep.dataset.examples[index]
    schema = prep.dataset.schema_for(example)
    original = prep.dataset.database_for(example)
    ctx = criteria.QuestionContext(schema, executor, original, TIME_LIMIT)
    gold = executor.execute(example.gold_query, original, TIME_LIMIT)
    if not gold.ok:
        raise RuntimeError(f"gold query failed on the original DB: {gold.status}")
    method = criteria.MethodConfig(method="unique", schedule=UNIQUE_SCHEDULE,
                                   temperature=UNIQUE_TEMPERATURE, seed=prep.inputs.sampler_seed)
    verdict = criteria.guided_search(ctx, scorer, method,
                                     criteria.OneTestCriterion(original, gold.denotation),
                                     question_id=example.question_id)
    answered = Answered(verdict, *_evaluate(example, schema, verdict.selected, original, None,
                                            executor))
    return answered, _checker(example, answered, original, None, [original])


WORKLOADS = {
    "search-cab-suite": search_cab_suite,
    "search-unique-onetest": search_unique_onetest,
}
# the workload whose questions need suites built in set-up
NEEDS_SUITES = "search-cab-suite"


def write_inputs(seed: int, data_dir: Path) -> Inputs:
    """Derive the inputs from the seed and write them as a dataset."""
    inputs = corpus.derive_inputs(seed)
    corpus.write_dataset(inputs, data_dir)
    return inputs


def setup(name: str, inputs: Inputs, data_dir: Path, root: Path) -> Prepared:
    """The program's set-up, as every command starts: load the dataset and
    start the executor's worker. For search-cab-suite, also build the first
    round's suites with it, as `build-suite` would. The caller closes
    `executor`."""
    dataset = datasets.load_dataset(
        data_dir / "examples.json", data_dir / "tables.json", data_dir / "database")
    prep = Prepared(inputs, dataset, QueryExecutor(time_limit=TIME_LIMIT, workers=1),
                    root / "suites")
    if name == NEEDS_SUITES:
        try:
            build_suites(prep)
        except BaseException:
            prep.executor.close()
            raise
    return prep


def build_suites(prep: Prepared) -> None:
    """Build and save the first round's suites, with their held-out stats."""
    prep.built = [build_one(prep, i, prep.executor) for i in range(ROUND)]


@dataclass
class Measured:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    first_round: list = field(default_factory=list)  # Answered or None per question
    tmp_bytes: int = 0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(name: str, prep: Prepared, seconds: float, tmp_dir: Path,
            tracer=None, one_round: bool = False) -> Measured:
    """Closed loop over the questions in order, in whole rounds, until
    `seconds` have passed and at least MIN_ROUNDS rounds are done (one round
    with `one_round`), on set-up's executor. Only the library calls are
    timed; making each question's scorer and checking its answer happen
    between questions."""
    out = Measured()
    answer = WORKLOADS[name]
    executor = prep.executor
    start = time.perf_counter()
    i = 0
    while True:
        index, question = _question(name, prep, i)
        scorer = prep.inputs.scorer(question)
        if tracer is not None:
            tracer.question = question.question_id
            tracer.scorer_keys[question.question_id] = (
                "corpus" if question.gold_weight == 0 else (question.gold, question.gold_weight))
        result = check = None
        t0 = time.perf_counter()
        try:
            result, check = answer(prep, index, scorer, executor)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        out.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.question = None
        problems = check() if check is not None else [f"{question.question_id}: raised"]
        for p in problems:
            print(p, file=sys.stderr)
        out.failed += bool(problems)
        if i < ROUND:
            out.first_round.append(result)
        i += 1
        if i == ROUND:
            out.tmp_bytes = dir_bytes(tmp_dir)
        if i % ROUND == 0 and (one_round or (
                i >= MIN_ROUNDS * ROUND and time.perf_counter() - start >= seconds)):
            break
    return out


def _question(name: str, prep: Prepared, i: int) -> tuple[int, Question]:
    """The loop's i-th question and the index of its dataset example."""
    examples = prep.inputs.examples
    if name != NEEDS_SUITES:
        return i % len(examples), examples[i % len(examples)]
    r, index = divmod(i, ROUND)
    q = examples[index]
    weights = corpus.GOLD_WEIGHTS
    w = weights[(weights.index(q.gold_weight) + r) % len(weights)]
    return index, dataclasses.replace(q, question_id=f"{q.question_id}.{r}", gold_weight=w)
