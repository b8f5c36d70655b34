"""Selection criteria over candidate queries and the guided-search driver.

A criterion is a predicate over candidate SQL text: executes without
errors, selects the expected columns, matches the expected output on one
database, or matches it on every database of a test suite. The driver runs
a search method with the criterion as callback and falls back to the
greedy decode when nothing passes within budget.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Union

from .executor import DatabaseInstance, Denotation, QueryExecutor
from .parser import ParseError, parse
from .query_ast import ColumnSignature, column_signature
from .schema import Schema
from .scorer import Hypothesis, Scorer
from .search import (
    SCHEDULE_PRESETS,
    CabSchedule,
    SamplerState,
    cab_search,
    greedy_decode,
    topk_sample,
    topp_sample,
    unique_randomizer_sample,
)
from .testsuite import TestSuite


@dataclass
class ExecutionCriterion:
    """Candidate must execute on the input database without errors."""


@dataclass
class ColumnMatchCriterion:
    """Candidate must select exactly the expected output columns."""

    expected: ColumnSignature


@dataclass
class OneTestCriterion:
    """Candidate's denotation must match the gold denotation on one DB."""

    db: DatabaseInstance
    expected: Denotation


@dataclass
class SuiteTestCriterion:
    """Candidate must match the gold denotation on every suite database."""

    suite: TestSuite


SearchCriterion = Union[
    ExecutionCriterion, ColumnMatchCriterion, OneTestCriterion, SuiteTestCriterion
]


@dataclass
class QuestionContext:
    """Everything a criterion needs to judge a candidate for one question."""

    schema: Schema
    executor: QueryExecutor
    database: DatabaseInstance
    time_limit: float | None = None


def first_passing(
    criterion: SearchCriterion, candidate_sqls: list[str], ctx: QuestionContext
) -> int | None:
    """Index of the first candidate that passes the criterion, checked in
    order up to it; None when none passes. Parse failures, errors and
    timeouts fail a candidate. The execution-based criteria check all
    candidates in one executor request."""
    if isinstance(criterion, ColumnMatchCriterion):
        return next((i for i, sql in enumerate(candidate_sqls)
                     if _selects_columns(sql, criterion.expected, ctx.schema)), None)

    if isinstance(criterion, ExecutionCriterion):
        gold_sql, tests = None, [(ctx.database, None)]
    elif isinstance(criterion, OneTestCriterion):
        gold_sql, tests = None, [(criterion.db, criterion.expected)]
    elif isinstance(criterion, SuiteTestCriterion):
        # the original database always participates, prepended to the suite
        suite = criterion.suite
        gold_sql = suite.gold_query
        tests = [(ctx.database, None), *zip(suite.databases, suite.gold_denotations)]
    else:
        raise TypeError(f"unknown criterion {criterion!r}")
    return ctx.executor.first_passing(candidate_sqls, gold_sql, tests, ctx.time_limit)


def _selects_columns(sql: str, expected: ColumnSignature, schema: Schema) -> bool:
    try:
        ast = parse(sql, schema)
    except ParseError:
        return False
    return column_signature(ast) == expected


def check(criterion: SearchCriterion, candidate_sql: str, ctx: QuestionContext) -> bool:
    """Evaluate a criterion on one candidate; parse failures, errors and
    timeouts are False."""
    return first_passing(criterion, [candidate_sql], ctx) == 0


SEARCH_METHODS = ("cab", "topk", "topp", "unique")


@dataclass
class MethodConfig:
    """Which search method to run and with what knobs."""

    method: str = "cab"  # one of SEARCH_METHODS
    schedule: CabSchedule | str = "t5"
    temperature: float = 1.0
    k: int = 50
    p: float = 0.95
    seed: int = 0

    def resolved_schedule(self) -> CabSchedule:
        if isinstance(self.schedule, CabSchedule):
            return self.schedule
        return SCHEDULE_PRESETS[self.schedule]


@dataclass
class SearchVerdict:
    question_id: str
    selected: str
    criterion_passed: bool
    fallback_used: bool
    hypotheses_tested: int
    # 0-based index of the accepting stage: a CAB stage, a top-k/top-p round
    # or a unique draw; None when the search fell back to greedy
    accepted_stage: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


def guided_search(
    ctx: QuestionContext,
    scorer: Scorer,
    config: MethodConfig,
    criterion: SearchCriterion,
    question_id: str = "",
) -> SearchVerdict:
    """Search until a candidate passes the criterion; greedy fallback on
    exhaustion. Duplicate candidate texts are checked at most once."""
    failed: set[str] = set()
    tested = calls = 0

    def first_accepted(hyps: list[Hypothesis]) -> int | None:
        """Index of the first hypothesis whose text passes; each distinct
        text is checked once, across calls too."""
        nonlocal tested, calls
        calls += 1
        offered = [h.text for h in hyps]
        texts = list(dict.fromkeys(t for t in offered if t not in failed))
        found = first_passing(criterion, texts, ctx)
        tested += len(texts) if found is None else found + 1
        failed.update(texts[:found])  # every text, when none passed
        return None if found is None else offered.index(texts[found])

    selected: Hypothesis | None = None
    if config.method == "cab":
        selected, _ = cab_search(
            scorer, config.resolved_schedule(), first_accepted, config.temperature
        )
    elif config.method in ("topk", "topp"):
        # k or p is fixed; only the sample count follows the round budget
        sample, knob = ((topk_sample, config.k) if config.method == "topk"
                        else (topp_sample, config.p))
        # sampling rounds reuse the beam-size grid as sample counts
        for round_idx, count in enumerate(config.resolved_schedule().beam_sizes):
            samples = sample(scorer, knob, count, config.temperature,
                             config.seed + round_idx)
            # each text's first draw, in score order; first_accepted skips a
            # text an earlier round drew, as it failed there
            fresh = sorted({h.text: h for h in reversed(samples)}.values(),
                           key=lambda h: (-h.logprob, h.tokens))
            found = first_accepted(fresh)
            if found is not None:
                selected = fresh[found]
                break
    elif config.method == "unique":
        state = SamplerState(scorer, temperature=config.temperature, seed=config.seed)
        selected, drawn = unique_randomizer_sample(
            state, first_accepted, max_iterations=config.resolved_schedule().beam_sizes[-1]
        )
        # its draws are checked in batches, but its stage is the accepting draw
        calls = len(drawn)
    else:
        raise ValueError(f"unknown search method {config.method!r}")

    passed = selected is not None
    if not passed:
        selected = greedy_decode(scorer, config.temperature)
    return SearchVerdict(
        question_id=question_id,
        selected=selected.text,
        criterion_passed=passed,
        fallback_used=not passed,
        hypotheses_tested=tested,
        # every method stops at its accepting stage
        accepted_stage=calls - 1 if passed else None,
    )
