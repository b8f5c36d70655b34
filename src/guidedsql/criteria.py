"""Selection criteria over candidate queries and the guided-search driver.

A criterion is a predicate over candidate SQL text: executes without
errors, selects the expected columns, matches the expected output on one
database, or matches it on every database of a test suite. The driver runs
a search method with the criterion as callback and falls back to the
greedy decode when nothing passes within budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

from .executor import DatabaseInstance, Denotation, QueryExecutor, matches_gold
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


def check(criterion: SearchCriterion, candidate_sql: str, ctx: QuestionContext) -> bool:
    """Evaluate a criterion; parse failures, errors and timeouts are False."""
    if isinstance(criterion, ColumnMatchCriterion):
        try:
            ast = parse(candidate_sql, ctx.schema)
        except ParseError:
            return False
        return column_signature(ast) == criterion.expected

    if isinstance(criterion, ExecutionCriterion):
        outcome = ctx.executor.execute(candidate_sql, ctx.database, ctx.time_limit)
        return outcome.ok

    if isinstance(criterion, OneTestCriterion):
        tests = [(criterion.db, criterion.expected)]
        return matches_gold(ctx.executor, candidate_sql, "", tests, ctx.time_limit)

    if isinstance(criterion, SuiteTestCriterion):
        # the original database always participates, prepended to the suite
        suite = criterion.suite
        tests = [(ctx.database, None), *zip(suite.databases, suite.gold_denotations)]
        return matches_gold(ctx.executor, candidate_sql, suite.gold_query, tests, ctx.time_limit)

    raise TypeError(f"unknown criterion {criterion!r}")


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
    max_length: int | None = None

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
    wall_time: float = field(compare=False, default=0.0)

    def to_json(self) -> dict:
        return {
            "question_id": self.question_id,
            "selected": self.selected,
            "criterion_passed": self.criterion_passed,
            "fallback_used": self.fallback_used,
            "hypotheses_tested": self.hypotheses_tested,
        }


def guided_search(
    ctx: QuestionContext,
    scorer: Scorer,
    config: MethodConfig,
    criterion: SearchCriterion,
    question_id: str = "",
) -> SearchVerdict:
    """Search until a candidate passes the criterion; greedy fallback on
    exhaustion. Duplicate candidate texts are checked at most once."""
    start = time.monotonic()
    memo: dict[str, bool] = {}
    tested = 0

    def accept(hyp: Hypothesis) -> bool:
        nonlocal tested
        text = hyp.text
        if text not in memo:
            tested += 1
            memo[text] = check(criterion, text, ctx)
        return memo[text]

    selected: Hypothesis | None = None
    if config.method == "cab":
        selected, _ = cab_search(
            scorer,
            config.resolved_schedule(),
            accept,
            config.temperature,
            config.max_length,
        )
    elif config.method in ("topk", "topp"):
        seen: set[str] = set()
        # sampling rounds reuse the beam-size grid as sample counts
        for round_idx, count in enumerate(config.resolved_schedule().beam_sizes):
            if config.method == "topk":
                # k is fixed; only the sample count follows the round budget
                samples = topk_sample(
                    scorer, max(config.k, 1), count, config.temperature,
                    config.seed + round_idx, config.max_length,
                )
            else:
                samples = topp_sample(
                    scorer, config.p, count, config.temperature,
                    config.seed + round_idx, config.max_length,
                )
            fresh = []
            for hyp in samples:
                if hyp.text not in seen:
                    seen.add(hyp.text)
                    fresh.append(hyp)
            for hyp in sorted(fresh, key=lambda h: (-h.logprob, h.tokens)):
                if accept(hyp):
                    selected = hyp
                    break
            if selected is not None:
                break
    elif config.method == "unique":
        state = SamplerState(
            scorer,
            temperature=config.temperature,
            seed=config.seed,
            max_length=config.max_length,
        )
        selected, _ = unique_randomizer_sample(
            scorer,
            state,
            max_iterations=config.resolved_schedule().beam_sizes[-1],
            criterion=accept,
        )
    else:
        raise ValueError(f"unknown search method {config.method!r}")

    if selected is not None:
        return SearchVerdict(
            question_id=question_id,
            selected=selected.text,
            criterion_passed=True,
            fallback_used=False,
            hypotheses_tested=tested,
            wall_time=time.monotonic() - start,
        )
    greedy = greedy_decode(scorer, config.temperature, config.max_length)
    return SearchVerdict(
        question_id=question_id,
        selected=greedy.text,
        criterion_passed=False,
        fallback_used=True,
        hypotheses_tested=tested,
        wall_time=time.monotonic() - start,
    )
