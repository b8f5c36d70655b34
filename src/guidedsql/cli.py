"""Command-line entry points tying the modules into reproducible pipelines.

Subcommands: build-suite, search, evaluate, suite-stats, sweep. Runs are
driven by a YAML/JSON config file with CLI-flag overrides; every run
writes a manifest (config hash, seeds) sufficient to reproduce its
outputs byte-identically. Timing data goes to a separate sidecar file so
the primary outputs stay deterministic.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import __version__
from .criteria import (
    SEARCH_METHODS,
    ColumnMatchCriterion,
    ExecutionCriterion,
    MethodConfig,
    OneTestCriterion,
    QuestionContext,
    SearchCriterion,
    SuiteTestCriterion,
    guided_search,
)
from .datasets import Dataset, DatasetExample, load_dataset
from .executor import QueryExecutor
from .metrics import (
    EvalRecord,
    RunReport,
    exact_set_match_text,
    execution_accuracy,
    test_suite_accuracy,
)
from .parser import ParseError, parse
from .query_ast import column_signature, print_query
from .scorer import NgramScorer, ReplayScorer, Scorer, tokenize_sql
from .search import SCHEDULE_PRESETS, CabSchedule
from .testsuite import (
    SuiteConfig,
    TestSuite,
    build_suite,
    generate_neighbors,
    load_suite,
    save_suite,
    suite_stats,
)

_DEFAULTS: dict = {
    "dataset": {"examples": None, "tables": None, "databases": None},
    "scorer": {
        "type": "ngram",
        "order": 3,
        "alpha": 0.1,
        "max_length": 64,
        "replay_file": None,
    },
    "search": {
        "method": "cab",
        "schedule": "t5",
        "temperature": 1.0,
        "p": 0.95,
        "k": 50,
        "seed": 0,
    },
    "criterion": "execution",
    "time_limit": 30.0,
    "suites_dir": None,
    "output_dir": "runs/out",
    "suite": {
        "max_dbs": 5,
        "max_attempts": 500,
        "nonempty_attempts": 100,
        "row_cap": 100,
        "seed": 0,
        "hint_prob": 0.3,
        "neighbors": 40,
        "heldout_neighbors": 20,
    },
}


@dataclass
class RunConfig:
    data: dict = field(default_factory=lambda: copy.deepcopy(_DEFAULTS))

    @classmethod
    def load(cls, path: str | Path | None, overrides: list[str] = ()) -> "RunConfig":
        config = cls()
        if path is not None:
            with open(path) as fh:
                loaded = yaml.safe_load(fh) or {}
            _deep_update(config.data, loaded)
        for item in overrides:
            key, _, value = item.partition("=")
            if not _:
                raise SystemExit(f"override must look like key=value: {item!r}")
            _set_path(config.data, key.split("."), yaml.safe_load(value))
        return config

    def __getitem__(self, key: str):
        return self.data[key]

    def hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def dataset(self) -> Dataset:
        ds = self.data["dataset"]
        for key in ("examples", "tables", "databases"):
            if not ds.get(key):
                raise SystemExit(f"config is missing dataset.{key}")
            if not Path(ds[key]).exists():
                raise SystemExit(f"dataset.{key} path does not exist: {ds[key]}")
        return load_dataset(ds["examples"], ds["tables"], ds["databases"])

    def scorer(self, dataset: Dataset) -> Scorer:
        sc = self.data["scorer"]
        if sc["type"] == "replay":
            return ReplayScorer(sc["replay_file"])
        if sc["type"] != "ngram":
            raise SystemExit(f"unknown scorer type {sc['type']!r}")
        corpus = [tokenize_sql(e.gold_query) for e in dataset.examples]
        return NgramScorer(
            corpus, order=int(sc["order"]), alpha=float(sc["alpha"]),
            max_length=int(sc["max_length"]),
        )

    def method_config(self) -> MethodConfig:
        sr = self.data["search"]
        if sr["method"] not in SEARCH_METHODS:
            raise SystemExit(f"unknown search method {sr['method']!r}; use one of {SEARCH_METHODS}")
        schedule = sr["schedule"]
        if isinstance(schedule, dict):
            schedule = CabSchedule(schedule["beam_sizes"], schedule["widths"])
        elif schedule not in SCHEDULE_PRESETS:
            raise SystemExit(f"unknown schedule preset {schedule!r}")
        return MethodConfig(
            method=sr["method"],
            schedule=schedule,
            temperature=float(sr["temperature"]),
            k=int(sr["k"]),
            p=float(sr["p"]),
            seed=int(sr["seed"]),
        )

    def suite_config(self) -> SuiteConfig:
        su = self.data["suite"]
        return SuiteConfig(
            max_dbs=int(su["max_dbs"]),
            max_attempts=int(su["max_attempts"]),
            nonempty_attempts=int(su["nonempty_attempts"]),
            row_cap=int(su["row_cap"]),
            seed=int(su["seed"]),
            hint_prob=float(su["hint_prob"]),
            time_limit=float(self.data["time_limit"]),
        )

    def executor(self, enable_test_functions: bool = False) -> QueryExecutor:
        return QueryExecutor(
            time_limit=float(self.data["time_limit"]),
            enable_test_functions=enable_test_functions,
        )


def _deep_update(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value


def _set_path(data: dict, path: list[str], value) -> None:
    for key in path[:-1]:
        data = data.setdefault(key, {})
    data[path[-1]] = value


def _write_manifest(out_dir: Path, config: RunConfig, command: str) -> None:
    manifest = {
        "command": command,
        "config": config.data,
        "config_hash": config.hash(),
        "version": __version__,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _build_criterion(
    name: str,
    example: DatasetExample,
    dataset: Dataset,
    ctx: QuestionContext,
    suites_dir: Path | None,
) -> SearchCriterion:
    schema = dataset.schema_for(example)
    if name == "execution":
        return ExecutionCriterion()
    if name == "column-match":
        gold_ast = parse(example.gold_query, schema)
        return ColumnMatchCriterion(column_signature(gold_ast))
    if name == "one-test":
        outcome = ctx.executor.execute(example.gold_query, ctx.database, ctx.time_limit)
        if not outcome.ok:
            raise RuntimeError(
                f"gold query failed on original DB for {example.question_id}: "
                f"{outcome.status}"
            )
        return OneTestCriterion(ctx.database, outcome.denotation)
    if name == "test-suite":
        if suites_dir is None:
            raise SystemExit("criterion test-suite requires suites_dir")
        return SuiteTestCriterion(load_suite(suites_dir / example.question_id, schema))
    raise SystemExit(f"unknown criterion {name!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_suite(config: RunConfig) -> int:
    dataset = config.dataset()
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    suite_cfg = config.suite_config()
    n_neighbors = int(config["suite"]["neighbors"])
    n_heldout = int(config["suite"]["heldout_neighbors"])
    failures = 0
    suites: list[TestSuite] = []
    heldout_sets = []
    with config.executor() as executor:
        for example in dataset.examples:
            schema = dataset.schema_for(example)
            try:
                gold = parse(example.gold_query, schema)
                neighbors = generate_neighbors(
                    gold, schema, n_neighbors, seed=suite_cfg.seed
                )
                original = dataset.database_for(example)
                suite = build_suite(
                    gold, neighbors, schema, suite_cfg, executor,
                    original=original, query_id=example.question_id,
                )
                save_suite(suite, out_dir)
                suites.append(suite)
                heldout_sets.append(
                    _heldout_neighbors(gold, schema, neighbors, n_heldout, suite_cfg.seed)
                )
            except Exception as exc:
                failures += 1
                print(f"[build-suite] {example.question_id} failed: {exc}", file=sys.stderr)
        stats = suite_stats(suites, heldout_sets, executor, suite_cfg.time_limit)
    with open(out_dir / "stats.json", "w") as fh:
        json.dump(stats.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(stats.render())
    _write_manifest(out_dir, config, "build-suite")
    # a failed question does not abort the run, but the exit status reports it
    return 1 if failures else 0


def _heldout_neighbors(gold, schema, construction, count: int, seed: int):
    # a different seed stream, then drop anything shared with construction
    candidates = generate_neighbors(gold, schema, count * 4 + len(construction.neighbors),
                                    seed=seed + 7919)
    taken = set(construction.texts())
    kept = [n for n, t in zip(candidates.neighbors, candidates.texts())
            if t not in taken][:count]
    return type(candidates)(gold, kept, candidates.seed)


def cmd_search(config: RunConfig) -> int:
    dataset = config.dataset()
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    method = config.method_config()
    criterion_name = config["criterion"]
    suites_dir = Path(config["suites_dir"]) if config["suites_dir"] else None
    scorer = config.scorer(dataset)

    verdict_path = out_dir / "verdicts.jsonl"
    done: dict[str, dict] = {}
    if verdict_path.exists():  # resume: keep answers, retry errored questions
        with open(verdict_path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    if "error" not in rec:
                        done[rec["question_id"]] = rec
    timings: list[dict] = []
    with config.executor() as executor:
        for example in dataset.examples:
            if example.question_id in done:
                continue
            schema = dataset.schema_for(example)
            ctx = QuestionContext(
                schema=schema,
                executor=executor,
                database=dataset.database_for(example),
                time_limit=float(config["time_limit"]),
            )
            try:
                criterion = _build_criterion(
                    criterion_name, example, dataset, ctx, suites_dir
                )
                verdict = guided_search(
                    ctx, scorer, method, criterion, question_id=example.question_id
                )
                done[example.question_id] = verdict.to_json()
                timings.append(
                    {"question_id": example.question_id, "wall_time": verdict.wall_time}
                )
            except Exception as exc:
                print(f"[search] {example.question_id} failed: {exc}", file=sys.stderr)
                done[example.question_id] = {
                    "question_id": example.question_id,
                    "selected": "",
                    "criterion_passed": False,
                    "fallback_used": False,
                    "hypotheses_tested": 0,
                    "error": str(exc),
                }
    with open(verdict_path, "w") as fh:
        for qid in sorted(done):
            fh.write(json.dumps(done[qid], sort_keys=True) + "\n")
    with open(out_dir / "timings.jsonl", "w") as fh:
        for rec in timings:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _write_manifest(out_dir, config, "search")
    errors = sum("error" in rec for rec in done.values())
    print(f"wrote {len(done)} verdicts to {verdict_path} ({errors} errored)")
    return 1 if errors else 0


def cmd_evaluate(config: RunConfig, verdicts_path: str | None = None,
                 beam_curve: bool = False) -> int:
    dataset = config.dataset()
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts_file = Path(verdicts_path or out_dir / "verdicts.jsonl")
    suites_dir = Path(config["suites_dir"]) if config["suites_dir"] else None
    verdicts: dict[str, dict] = {}
    with open(verdicts_file) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                verdicts[rec["question_id"]] = rec

    report = RunReport()
    with config.executor() as executor:
        for example in dataset.examples:
            rec = verdicts.get(example.question_id)
            if rec is None:
                continue
            schema = dataset.schema_for(example)
            predicted = rec["selected"]
            original = dataset.database_for(example)
            suite = None
            if suites_dir is not None and (suites_dir / example.question_id).exists():
                suite = load_suite(suites_dir / example.question_id, schema)
            suite_match = None
            if suite is not None:
                suite_match = test_suite_accuracy(
                    example.gold_query, predicted, suite, executor,
                    float(config["time_limit"]), original_db=original,
                )
            report.records.append(
                EvalRecord(
                    question_id=example.question_id,
                    gold_query=example.gold_query,
                    predicted_query=predicted,
                    exact_match=exact_set_match_text(example.gold_query, predicted, schema),
                    execution_match=execution_accuracy(
                        example.gold_query, predicted, original, executor,
                        float(config["time_limit"]),
                    ),
                    suite_match=suite_match,
                    criterion=config["criterion"],
                    method=config["search"]["method"],
                    fallback_used=rec["fallback_used"],
                )
            )
        with open(out_dir / "report.json", "w") as fh:
            fh.write(report.dumps())
        with open(out_dir / "report.txt", "w") as fh:
            fh.write(report.render() + "\n")
        print(report.render())
        if beam_curve:
            _write_beam_curve(config, dataset, suites_dir, out_dir)
    return 0


def _write_beam_curve(config: RunConfig, dataset: Dataset,
                      suites_dir: Path | None, out_dir: Path) -> None:
    """TS accuracy as a function of the maximum beam size cap."""
    caps = [1, 10, 100, 800]
    method = config.method_config()
    base_schedule = method.resolved_schedule()
    scorer = config.scorer(dataset)
    rows = []
    with config.executor() as executor:
        for cap in caps:
            method_cap = MethodConfig(
                method="cab",
                schedule=base_schedule.capped(cap),
                temperature=method.temperature,
                seed=method.seed,
            )
            hits = total = 0
            for example in dataset.examples:
                schema = dataset.schema_for(example)
                if suites_dir is None or not (suites_dir / example.question_id).exists():
                    continue
                suite = load_suite(suites_dir / example.question_id, schema)
                ctx = QuestionContext(
                    schema=schema,
                    executor=executor,
                    database=dataset.database_for(example),
                    time_limit=float(config["time_limit"]),
                )
                criterion = SuiteTestCriterion(suite)
                verdict = guided_search(ctx, scorer, method_cap, criterion,
                                        question_id=example.question_id)
                total += 1
                hits += test_suite_accuracy(
                    example.gold_query, verdict.selected, suite, executor,
                    float(config["time_limit"]), original_db=ctx.database,
                )
            rows.append({"max_beam": cap, "ts_accuracy": hits / total if total else 0.0})
    with open(out_dir / "beam_curve.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["max_beam", "ts_accuracy"])
        writer.writeheader()
        writer.writerows(rows)


def cmd_suite_stats(config: RunConfig, suites_path: str | None = None) -> int:
    dataset = config.dataset()
    suites_dir = Path(suites_path or config["suites_dir"] or config["output_dir"])
    n_heldout = int(config["suite"]["heldout_neighbors"])
    seed = int(config["suite"]["seed"])
    suites = []
    heldout_sets = []
    with config.executor() as executor:
        for example in dataset.examples:
            suite_dir = suites_dir / example.question_id
            if not suite_dir.exists():
                continue
            schema = dataset.schema_for(example)
            suite = load_suite(suite_dir, schema)
            gold = parse(suite.gold_query, schema)
            construction = generate_neighbors(
                gold, schema, len(suite.construction_neighbors) or 1, seed=seed
            )
            suites.append(suite)
            heldout_sets.append(
                _heldout_neighbors(gold, schema, construction, n_heldout, seed)
            )
        stats = suite_stats(suites, heldout_sets, executor, float(config["time_limit"]))
    print(stats.render())
    return 0


def cmd_sweep(config: RunConfig, param: str, values: list[str]) -> int:
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        sub = RunConfig(copy.deepcopy(config.data))
        _set_path(sub.data, param.split("."), yaml.safe_load(value))
        sub.data["output_dir"] = str(out_dir / f"{param.replace('.', '_')}_{value}")
        cmd_search(sub)
        cmd_evaluate(sub)
        with open(Path(sub.data["output_dir"]) / "report.json") as fh:
            report = json.load(fh)
        rows.append({
            "value": value,
            "exact_set_match": report["exact_set_match"],
            "execution_accuracy": report["execution_accuracy"],
            "test_suite_accuracy": report["test_suite_accuracy"],
        })
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["value", "exact_set_match", "execution_accuracy",
                        "test_suite_accuracy"],
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep over {param}: {len(rows)} runs, summary in {out_dir / 'sweep.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="guidedsql",
        description="Criterion-guided query search and semantic test suites",
    )
    parser.add_argument("--config", "-c", help="YAML/JSON run config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config entry, e.g. search.temperature=2.0",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build-suite", help="build per-query test suites + stats")
    sub.add_parser("search", help="run criterion-guided search, write verdicts")
    p_eval = sub.add_parser("evaluate", help="compute EM/EX/TS over verdicts")
    p_eval.add_argument("--verdicts", help="verdicts file (default: output_dir)")
    p_eval.add_argument("--beam-curve", action="store_true",
                        help="also write TS-vs-max-beam CSV")
    p_stats = sub.add_parser("suite-stats", help="statistics of existing suites")
    p_stats.add_argument("--suites", help="suites directory")
    p_sweep = sub.add_parser("sweep", help="grid runs over one config entry")
    p_sweep.add_argument("--param", required=True, help="e.g. search.temperature")
    p_sweep.add_argument("--values", required=True, nargs="+")

    args = parser.parse_args(argv)
    config = RunConfig.load(args.config, args.set)
    if args.command == "build-suite":
        return cmd_build_suite(config)
    if args.command == "search":
        return cmd_search(config)
    if args.command == "evaluate":
        return cmd_evaluate(config, args.verdicts, args.beam_curve)
    if args.command == "suite-stats":
        return cmd_suite_stats(config, args.suites)
    if args.command == "sweep":
        return cmd_sweep(config, args.param, args.values)
    raise AssertionError


if __name__ == "__main__":
    sys.exit(main())
