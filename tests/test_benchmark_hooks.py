"""The benchmark under `benchmarks/` reaches into the library by name: its
tracer wraps functions and methods, and its workloads import helpers and
build an executor. These checks fail when a library change removes or
renames one of those names, or breaks a call a workload makes, instead of
leaving `benchmarks/run.py` broken.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports guidedsql.cli._heldout_neighbors)
from guidedsql import criteria  # noqa: E402
from guidedsql.criteria import (  # noqa: E402
    ColumnMatchCriterion,
    MethodConfig,
    QuestionContext,
)
from guidedsql.executor import DatabaseInstance, QueryExecutor  # noqa: E402
from guidedsql.parser import parse  # noqa: E402
from guidedsql.query_ast import column_signature  # noqa: E402
from guidedsql.scorer import NgramScorer, TableScorer, tokenize_sql  # noqa: E402
from guidedsql.search import CabSchedule, SamplerState, beam_search  # noqa: E402


def _guidedsql_names() -> dict[tuple[str, str], object]:
    return {
        (module_name, key): value
        for module_name, module in sys.modules.items()
        if module_name.split(".")[0] == "guidedsql"
        for key, value in list(vars(module).items())
    }


def test_every_traced_target_exists():
    missing = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS
               if not hasattr(owner, attr)]
    assert not missing


def test_tracer_uninstall_restores_every_wrapped_name():
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    names = _guidedsql_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    assert all(r is o for r, o in zip(restored, originals))
    after = _guidedsql_names()
    assert all(after[key] is value for key, value in names.items())


def test_benchmark_executor_constructs_and_closes():
    executor = QueryExecutor(workers=1)
    executor.close()


def test_tracer_records_the_file_an_execute_read(concert_db, executor, tmp_path):
    # `executor.distinct_dbs` and `distinct_dbs_per_question` read the DB
    # path off the materialize span under each execute span
    path = concert_db.to_sqlite(tmp_path / "c.sqlite")
    saved = DatabaseInstance.from_sqlite(path, concert_db.schema)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.question = "q1"
        assert executor.execute("select count(*) from singer", saved).ok
        assert executor.execute("select count(*) from concert", str(path)).ok
    finally:
        tracer.uninstall()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["executor.execute", "executor.materialize", "executor.execute"]
    materialize = tracer.spans[1]
    assert materialize[tracing.PARENT] == 0 and materialize[tracing.INFO] == str(path)
    assert tracer.layer_metrics()["executor.distinct_dbs"][0] == 1
    assert tracer.traffic()["distinct_dbs_per_question"] == 1


def test_tracer_keeps_what_it_reads_off_search_results(concert_schema, concert_db, executor):
    # the tracer's per-layer metrics read the results of the search calls it
    # wraps; a change to their shape must fail here, not in a benchmark run
    sql = "select name from singer"
    scorer = TableScorer({tuple(s.split()): p for s, p in [
        ("select age from singer", 0.5), (sql, 0.3), ("select country from singer", 0.2)]})
    criterion = ColumnMatchCriterion(column_signature(parse(sql, concert_schema)))
    ctx = QuestionContext(concert_schema, executor, concert_db)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdicts = {method: criteria.guided_search(
            ctx, scorer, MethodConfig(method=method, schedule=CabSchedule([1, 3], [1, 3]),
                                      k=3, seed=1), criterion)
            for method in ("cab", "topk", "unique")}
    finally:
        tracer.uninstall()
    assert all(v.criterion_passed and v.selected == sql for v in verdicts.values())
    metrics = tracer.layer_metrics()
    assert metrics["search.beam_calls"][0] == verdicts["cab"].accepted_stage + 1 > 0
    assert metrics["search.draws"][0] == verdicts["unique"].accepted_stage + 1
    kept = {s[tracing.NAME]: s[tracing.INFO] for s in tracer.spans}
    assert kept["search.cab_search"] == verdicts["cab"].hypotheses_tested == 2
    assert kept["search.unique_randomizer_sample"] == verdicts["unique"].accepted_stage + 1


def test_traced_scorer_calls_count_every_sampler_step_and_no_beam_row():
    # `scorer.calls` counts the spans of NgramScorer.next_distribution: a
    # sampler that read its rows some other way would leave it at 0. Beam
    # search reads whole rows by state, and adds none.
    corpus = [tokenize_sql(sql) for sql in (
        "select name from singer where age > 30", "select count(*) from singer",
        "select venue from concert order by attendance desc limit 1")]
    scorer = NgramScorer(corpus, order=3)
    state = SamplerState(scorer, temperature=0.5, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        draws = [state.draw() for _ in range(5)]
        sampled = tracer.layer_metrics()["scorer.calls"][0]
        assert beam_search(scorer, 4, 3, 0.5)
        after_beam = tracer.layer_metrics()["scorer.calls"][0]
    finally:
        tracer.uninstall()
    # a draw takes one step per token, and one for its EOS
    steps = sum(len(hyp.tokens) + 1 for hyp in draws)
    assert steps > 5 and sampled == steps and after_beam == sampled


def test_each_workload_answers_a_question_its_checker_accepts(tmp_path):
    # the workloads' library calls, end to end on seed 0's inputs: one
    # suite built as set-up builds it, then question 0 under each workload
    data_dir = tmp_path / "data"
    inputs = workloads.write_inputs(0, data_dir)
    prep = workloads.setup("search-unique-onetest", inputs, data_dir, tmp_path)
    try:
        workloads.build_one(prep, 0, prep.executor)
        scorer = inputs.scorer(inputs.examples[0])
        for name, answer in workloads.WORKLOADS.items():
            _, check = answer(prep, 0, scorer, prep.executor)
            assert check() == [], name
    finally:
        prep.executor.close()
