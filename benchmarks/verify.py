"""Independent re-verification of what the program answered.

Queries run in-process against in-memory SQLite copies of each database,
bypassing the executor's worker pipe and materialized files; results go
through the library's own `normalize_cell` and `compare`, so a disagreement
points at the path under test, not at denotation semantics.
"""

from __future__ import annotations

import sqlite3
import time

from guidedsql.executor import (
    DatabaseInstance,
    Denotation,
    compare,
    has_top_level_order_by,
    normalize_cell,
)
from guidedsql.testsuite import TestSuite

# An independent copy of the column affinities the executor writes, so that a
# change to how it materializes databases shows up as a disagreement here.
_COLUMN_TYPES = {"integer": "INTEGER", "real": "REAL", "text": "TEXT",
                 "boolean": "NUMERIC", "time": "NUMERIC"}
TIME_LIMIT = 30.0


class InProcessDb:
    """One database copied into an in-memory SQLite connection."""

    def __init__(self, db: DatabaseInstance):
        self.con = sqlite3.connect(":memory:")
        self.con.text_factory = lambda b: b.decode("utf-8", "replace")
        for table in db.schema.tables:
            cols = ", ".join(f'"{n}" {_COLUMN_TYPES[t]}' for n, t in table.columns)
            self.con.execute(f'CREATE TABLE "{table.name}" ({cols})')
            rows = db.tables.get(table.name, [])
            if rows:
                marks = ", ".join("?" * len(table.columns))
                self.con.executemany(f'INSERT INTO "{table.name}" VALUES ({marks})', rows)

    def run(self, sql: str) -> Denotation | None:
        """The query's denotation, or None on error or timeout."""
        deadline = time.monotonic() + TIME_LIMIT
        self.con.set_progress_handler(lambda: time.monotonic() > deadline, 2000)
        try:
            cur = self.con.execute(sql)
            rows = cur.fetchall()
        except sqlite3.Error:
            return None
        ncols = len(cur.description) if cur.description else 0
        rows = [tuple(normalize_cell(c) for c in row) for row in rows]
        return Denotation(ncols, rows, ordered=has_top_level_order_by(sql))

    def close(self) -> None:
        self.con.close()


def matches_gold(gold_sql: str, candidate_sql: str, dbs: list[InProcessDb]) -> bool:
    """True when the gold query runs and the candidate matches it on every DB."""
    for db in dbs:
        gold = db.run(gold_sql)
        if gold is None:
            return False
        got = db.run(candidate_sql)
        if got is None or not compare(got, gold):
            return False
    return True


def check_suite(suite: TestSuite) -> list[str]:
    """Problems with a built suite: a stored gold denotation that the DB does
    not reproduce, or a neighbor listed in `distinguished` that the DB does
    not tell apart from gold."""
    problems = []
    for i, db in enumerate(suite.databases):
        copy = InProcessDb(db)
        try:
            gold = copy.run(suite.gold_query)
            if gold is None or not compare(gold, suite.gold_denotations[i]):
                problems.append(f"{suite.query_id}: db {i} gold denotation differs")
                continue
            for n in suite.distinguished.get(i, []):
                got = copy.run(suite.construction_neighbors[n])
                if got is not None and compare(got, gold):
                    problems.append(f"{suite.query_id}: db {i} does not distinguish neighbor {n}")
        finally:
            copy.close()
    return problems


def check_answer(
    question_id: str,
    gold_sql: str,
    selected: str,
    criterion_passed: bool,
    criterion_dbs: list[DatabaseInstance],
    original: DatabaseInstance,
    suite: TestSuite | None,
    ex_match: bool,
    ts_match: bool | None,
) -> list[str]:
    """Problems with one search answer: an accepted candidate that does not
    match gold on every DB its criterion covers, or an EX/TS verdict that
    differs from the in-process recomputation."""
    problems = []
    copies: dict[int, InProcessDb] = {}

    def copies_of(dbs):
        for db in dbs:
            if id(db) not in copies:
                copies[id(db)] = InProcessDb(db)
        return [copies[id(db)] for db in dbs]

    try:
        if criterion_passed and not matches_gold(gold_sql, selected, copies_of(criterion_dbs)):
            problems.append(f"{question_id}: accepted candidate does not match gold: {selected!r}")
        if matches_gold(gold_sql, selected, copies_of([original])) != ex_match:
            problems.append(f"{question_id}: EX verdict {ex_match} is wrong")
        if suite is not None:
            expected = matches_gold(gold_sql, selected, copies_of([original] + suite.databases))
            if expected != ts_match:
                problems.append(f"{question_id}: TS verdict {ts_match} is wrong")
    finally:
        for copy in copies.values():
            copy.close()
    return problems
