"""The benchmark's checker must fire on planted errors.

    python3 -m pytest benchmarks/test_verify.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

from guidedsql import testsuite  # noqa: E402
from guidedsql.executor import DatabaseInstance  # noqa: E402

import corpus  # noqa: E402
import verify  # noqa: E402

GOLD = "select name from singer where age > 30"
RIGHT = "select name from singer where age >= 31"
WRONG = "select name from singer where age > 40"


def _concert() -> DatabaseInstance:
    return DatabaseInstance(corpus.concert_schema(), corpus.ORIGINAL_ROWS["concert"])


def _suite(distinguished: dict[int, list[int]]) -> testsuite.TestSuite:
    db = _concert()
    copy = verify.InProcessDb(db)
    gold = copy.run(GOLD)
    copy.close()
    return testsuite.TestSuite(
        query_id="q0", gold_query=GOLD, schema=db.schema, databases=[db],
        gold_denotations=[gold], distinguished=distinguished,
        construction_neighbors=[WRONG, RIGHT],
    )


def _answer_problems(selected: str, passed: bool, ex: bool, ts: bool) -> list[str]:
    suite = _suite({0: [0]})
    original = _concert()
    return verify.check_answer("q0", GOLD, selected, passed, [original] + suite.databases,
                               original, suite, ex, ts)


def test_correct_answer_passes():
    assert _answer_problems(RIGHT, True, True, True) == []
    assert _answer_problems(WRONG, False, False, False) == []


def test_planted_wrong_selection_is_reported():
    problems = _answer_problems(WRONG, True, False, False)
    assert any("accepted candidate does not match gold" in p for p in problems)


def test_wrong_ex_or_ts_verdict_is_reported():
    assert any("EX verdict" in p for p in _answer_problems(WRONG, False, True, False))
    assert any("TS verdict" in p for p in _answer_problems(WRONG, False, False, True))


def test_true_distinguished_entry_passes():
    assert verify.check_suite(_suite({0: [0]})) == []


def test_planted_false_distinguished_entry_is_reported():
    problems = verify.check_suite(_suite({0: [0, 1]}))
    assert problems == ["q0: db 0 does not distinguish neighbor 1"]


def test_wrong_stored_gold_denotation_is_reported():
    suite = _suite({0: [0]})
    suite.gold_denotations[0].rows.pop()
    assert verify.check_suite(suite) == ["q0: db 0 gold denotation differs"]
