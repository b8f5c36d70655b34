"""Evaluation metrics: subset exact-set match, execution accuracy and
test-suite accuracy, with per-run aggregation and report rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .executor import DatabaseInstance, QueryExecutor
from .parser import ParseError, parse
from .query_ast import (
    ColumnExpr,
    Comparison,
    Predicate,
    QueryAst,
    SelectQuery,
    SetQuery,
)
from .schema import Schema
from .testsuite import TestSuite


def _expr_sig(expr: ColumnExpr):
    return (expr.agg, str(expr.target), expr.distinct)


def _value_sig(value) -> tuple:
    # literal values are deliberately ignored; keep structure for the rest
    if isinstance(value, ColumnExpr):
        return ("col", _expr_sig(value))
    if isinstance(value, (SelectQuery, SetQuery)):
        return ("subquery", _query_sig(value))
    return ("value",)


def _pred_sig(pred: Predicate | None):
    if pred is None:
        return None
    if isinstance(pred, Comparison):
        return ("cmp", _expr_sig(pred.left), pred.op, _value_sig(pred.right))
    return (pred.op, tuple(sorted(_pred_sig(a) for a in pred.args)))


def _query_sig(ast: QueryAst) -> tuple:
    if isinstance(ast, SetQuery):
        return ("set", ast.op, _query_sig(ast.left), _query_sig(ast.right))
    return (
        "select",
        tuple(sorted(_expr_sig(e) for e in ast.select)),
        ast.select_distinct,
        tuple(sorted(ast.tables)),
        tuple(sorted((str(j.left), str(j.right)) for j in ast.joins)),
        _pred_sig(ast.where),
        tuple(sorted(str(c) for c in ast.group_by)),
        _pred_sig(ast.having),
        tuple((_expr_sig(o.expr), o.desc) for o in ast.order_by),
        ast.limit is not None,
    )


def exact_set_match(gold: QueryAst, pred: QueryAst) -> bool:
    """Clause-decomposed structural match, insensitive to the ordering of
    independent clauses and blind to literal values ("subset-EM")."""
    return _query_sig(gold) == _query_sig(pred)


def exact_set_match_text(gold_sql: str, pred_sql: str, schema: Schema) -> bool:
    try:
        gold_ast = parse(gold_sql, schema)
        pred_ast = parse(pred_sql, schema)
    except ParseError:
        return False
    return exact_set_match(gold_ast, pred_ast)


def execution_accuracy(
    gold_sql: str,
    pred_sql: str,
    db: DatabaseInstance,
    executor: QueryExecutor,
    time_limit: float | None = None,
) -> bool:
    """Both queries execute and their denotations match on the original DB."""
    return executor.first_passing([pred_sql], gold_sql, [(db, None)], time_limit) == 0


def test_suite_accuracy(
    gold_sql: str,
    pred_sql: str,
    suite: TestSuite,
    executor: QueryExecutor,
    time_limit: float | None = None,
    original_db: DatabaseInstance | None = None,
) -> bool:
    """Denotations match on every suite database (plus the original DB when
    provided); any error or timeout fails."""
    tests = [] if original_db is None else [(original_db, None)]
    tests.extend(zip(suite.databases, suite.gold_denotations))
    return executor.first_passing([pred_sql], gold_sql, tests, time_limit) == 0


@dataclass
class EvalRecord:
    question_id: str
    gold_query: str
    predicted_query: str
    exact_match: bool
    execution_match: bool
    suite_match: bool | None  # None when no suite is available
    criterion: str = ""
    method: str = ""
    fallback_used: bool = False

    def to_json(self) -> dict:
        return {
            "question_id": self.question_id,
            "gold_query": self.gold_query,
            "predicted_query": self.predicted_query,
            "exact_match": self.exact_match,
            "execution_match": self.execution_match,
            "suite_match": self.suite_match,
            "criterion": self.criterion,
            "method": self.method,
            "fallback_used": self.fallback_used,
        }


@dataclass
class RunReport:
    records: list[EvalRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    def accuracy(self, metric: str) -> float:
        if not self.records:
            return 0.0
        if metric == "em":
            hits = sum(r.exact_match for r in self.records)
            return hits / self.total
        if metric == "ex":
            hits = sum(r.execution_match for r in self.records)
            return hits / self.total
        if metric == "ts":
            scored = [r for r in self.records if r.suite_match is not None]
            if not scored:
                return 0.0
            return sum(r.suite_match for r in scored) / len(scored)
        raise ValueError(f"unknown metric {metric!r}")

    def fallback_count(self) -> int:
        return sum(r.fallback_used for r in self.records)

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "exact_set_match": round(self.accuracy("em"), 4),
            "execution_accuracy": round(self.accuracy("ex"), 4),
            "test_suite_accuracy": round(self.accuracy("ts"), 4),
            "suite_unavailable": sum(r.suite_match is None for r in self.records),
            "fallbacks": self.fallback_count(),
            "records": [r.to_json() for r in self.records],
        }

    def render(self) -> str:
        lines = [
            f"{'Metric':<24} {'Accuracy':>9}",
            f"{'subset-EM':<24} {100 * self.accuracy('em'):>8.1f}%",
            f"{'EX (execution)':<24} {100 * self.accuracy('ex'):>8.1f}%",
            f"{'TS (test suite)':<24} {100 * self.accuracy('ts'):>8.1f}%",
            f"examples: {self.total}, fallbacks: {self.fallback_count()}",
        ]
        return "\n".join(lines)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
