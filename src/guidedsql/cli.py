"""Command-line entry points tying the modules into reproducible pipelines.

Subcommands: build-suite, search, evaluate, suite-stats, sweep. Runs are
driven by a YAML/JSON config file with CLI-flag overrides; every run
writes a manifest (config hash, seeds) sufficient to reproduce its
outputs byte-identically. Timing data goes to a separate sidecar file so
the primary outputs stay deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
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
from .datasets import Dataset, DatasetError, DatasetExample, load_dataset
from .executor import QueryExecutor
from .metrics import (
    EvalRecord,
    RunReport,
    exact_set_match_text,
    execution_accuracy,
    test_suite_accuracy,
)
from .parser import parse
from .query_ast import column_signature
from .scorer import EmptyCorpus, NgramScorer, ReplayScorer, Scorer, tokenize_sql
from .search import SCHEDULE_PRESETS, CabSchedule, greedy_decode
from .testsuite import (
    NeighborSet,
    SuiteConfig,
    TestSuite,
    build_suite,
    generate_neighbors,
    load_suite,
    neighbor_pool,
    sample_neighbors,
    save_suite,
    suite_stats,
)

CRITERIA = ("execution", "column-match", "one-test", "test-suite")


def _integer(least: int):  # a bool is an int to Python, but not a count
    return (lambda v: type(v) is int and v >= least), f"an integer >= {least}"


def _number(test, words: str):
    def check(v) -> bool:
        if isinstance(v, str):  # YAML 1.1 reads 1e-3 as text; float() reads it as a number
            try:
                v = float(v)
            except ValueError:
                return False
        return type(v) in (int, float) and math.isfinite(v) and test(v)
    return check, f"a number {words}"


def _one_of(*choices: str):
    return (lambda v: isinstance(v, str) and v in choices), "one of " + ", ".join(choices)


def _is_schedule(value) -> bool:
    if isinstance(value, str):
        return value in SCHEDULE_PRESETS
    try:
        CabSchedule(**value)
    except (TypeError, ValueError):
        return False
    return all(isinstance(v, list) and all(type(n) is int for n in v) for v in value.values())


_PATH = (lambda v: v is None or isinstance(v, str)), "a path or null"
_POSITIVE = _number(lambda v: v > 0, "> 0")

# Every config key: its default, the test its value must pass (type and
# bound), and that test in words. RunConfig rejects any other key.
_KEYS: dict[str, tuple] = {
    "dataset.examples": (None, *_PATH),
    "dataset.tables": (None, *_PATH),
    "dataset.databases": (None, *_PATH),
    "scorer.type": ("ngram", *_one_of("ngram", "replay")),
    "scorer.order": (3, *_integer(1)),
    "scorer.alpha": (0.1, *_POSITIVE),
    "scorer.max_length": (64, *_integer(1)),
    "scorer.replay_file": (None, *_PATH),
    "search.method": ("cab", *_one_of(*SEARCH_METHODS)),
    "search.schedule": ("t5", _is_schedule, f"one of {', '.join(SCHEDULE_PRESETS)} or {{beam_sizes"
                        ": [...], widths: [...]}, positive integers, beam sizes increasing"),
    "search.temperature": (1.0, *_POSITIVE),
    "search.p": (0.95, *_number(lambda v: 0 < v <= 1, "in (0, 1]")),
    "search.k": (50, *_integer(1)),
    "search.seed": (0, *_integer(0)),
    "criterion": ("execution", *_one_of(*CRITERIA)),
    "time_limit": (30.0, *_POSITIVE),
    "suites_dir": (None, *_PATH),
    "output_dir": ("runs/out", lambda v: isinstance(v, str) and v != "", "a path"),
    "suite.max_dbs": (5, *_integer(1)),
    "suite.max_attempts": (500, *_integer(0)),
    "suite.nonempty_attempts": (100, *_integer(0)),
    "suite.row_cap": (100, *_integer(1)),
    "suite.seed": (0, *_integer(0)),
    "suite.hint_prob": (0.3, *_number(lambda v: 0 <= v <= 1, "in [0, 1]")),
    "suite.neighbors": (40, *_integer(1)),
    "suite.heldout_neighbors": (20, *_integer(1)),
}


def _defaults() -> dict:
    data: dict = {}
    for key, (default, _, _) in _KEYS.items():
        _set_path(data, key.split("."), default)
    return data


def _leaves(data: dict, prefix: str = ""):
    for name, value in data.items():
        key = f"{prefix}{name}"
        if isinstance(value, dict) and key not in _KEYS:
            yield from _leaves(value, key + ".")
        else:
            yield key, value


@dataclass
class RunConfig:
    """A run's config, checked against `_KEYS` when it is made; the values
    stay as loaded, so the manifest and hash record what the user wrote."""

    data: dict = field(default_factory=_defaults)

    def __post_init__(self) -> None:
        for key, value in _leaves(self.data):
            if key not in _KEYS:
                raise SystemExit(f"{key} is not a config key")
            _, test, words = _KEYS[key]
            if not test(value):
                raise SystemExit(f"{key} must be {words}, not {value!r}")

    @classmethod
    def load(cls, path: str | Path | None, overrides: list[str] = ()) -> "RunConfig":
        data = _defaults()
        if path is not None:
            try:
                with open(path) as fh:
                    loaded = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise SystemExit(f"{path}: not a YAML file ({_yaml_problem(exc)})") from None
            except (OSError, ValueError) as exc:  # missing, unreadable or not UTF-8
                raise SystemExit(f"{path}: cannot read the config file ({exc})") from None
            if not isinstance(loaded, dict):
                raise SystemExit(f"{path} must hold a mapping of config keys")
            _deep_update(data, loaded)
        for item in overrides:
            key, _, value = item.partition("=")
            if not _:
                raise SystemExit(f"override must look like key=value: {item!r}")
            _set_path(data, key.split("."), _yaml_value(key, value))
        return cls(data)

    def __getitem__(self, key: str):
        return self.data[key]

    def hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def dataset(self) -> Dataset:
        ds = self.data["dataset"]
        for key in ("examples", "tables", "databases"):
            if not (ds[key] and Path(ds[key]).exists()):
                raise SystemExit(f"dataset.{key} must name an existing path, not {ds[key]!r}")
        try:
            return load_dataset(ds["examples"], ds["tables"], ds["databases"])
        except DatasetError as exc:
            raise SystemExit(str(exc)) from None

    def scorer(self, dataset: Dataset) -> Scorer:
        sc = self.data["scorer"]
        if sc["type"] == "replay":  # the replay file must exist and hold distributions
            try:
                return ReplayScorer(sc["replay_file"] or "")
            except (OSError, ValueError) as exc:
                raise SystemExit(f"scorer.replay_file for scorer.type replay: {exc}") from None
        corpus = [tokenize_sql(e.gold_query) for e in dataset.examples]
        try:
            return NgramScorer(corpus, order=sc["order"], alpha=float(sc["alpha"]),
                               max_length=sc["max_length"])
        except EmptyCorpus:
            raise SystemExit(f"{self.data['dataset']['examples']}: holds no examples to "
                             "train scorer.type ngram on") from None
        except ValueError as exc:  # a context too long to pack in an int64
            raise SystemExit(f"scorer.order {sc['order']} is too high: {exc}") from None

    def method_config(self) -> MethodConfig:
        sr = self.data["search"]
        schedule = sr["schedule"]
        if isinstance(schedule, dict):
            schedule = CabSchedule(**schedule)
        return MethodConfig(method=sr["method"], schedule=schedule,
                            temperature=float(sr["temperature"]), k=sr["k"],
                            p=float(sr["p"]), seed=sr["seed"])

    def suite_config(self) -> SuiteConfig:
        su = self.data["suite"]
        return SuiteConfig(
            max_dbs=su["max_dbs"], max_attempts=su["max_attempts"],
            nonempty_attempts=su["nonempty_attempts"], row_cap=su["row_cap"],
            seed=su["seed"], hint_prob=float(su["hint_prob"]),
        )

    def search_suites_dir(self) -> Path | None:
        """`suites_dir` for the search criterion; test-suite needs one."""
        if self.data["criterion"] == "test-suite" and not self.data["suites_dir"]:
            raise SystemExit("criterion test-suite requires suites_dir")
        return self.suites_dir() if self.data["criterion"] == "test-suite" else None

    def suites_dir(self) -> Path | None:
        """`suites_dir`, which must name a directory when it is set."""
        value = self.data["suites_dir"]
        if value and not Path(value).is_dir():
            raise SystemExit(f"suites_dir must name an existing directory, not {value!r}")
        return Path(value) if value else None

    def executor(self) -> QueryExecutor:
        return QueryExecutor(time_limit=float(self.data["time_limit"]))


def _deep_update(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """What the YAML parser found wrong, and where, on one line."""
    mark = getattr(exc, "problem_mark", None)
    where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
    return " ".join((where + (getattr(exc, "problem", None) or str(exc))).split())


def _yaml_value(key: str, value: str):
    """A `key=value` override's value as YAML reads it."""
    try:
        return yaml.safe_load(value)
    except yaml.YAMLError as exc:
        raise SystemExit(f"{key} must be a YAML value, not {value!r} "
                         f"({_yaml_problem(exc)})") from None


def _set_path(data: dict, path: list[str], value) -> None:
    for key in path[:-1]:
        data = data.setdefault(key, {})
        if not isinstance(data, dict):
            raise SystemExit(f"{'.'.join(path)} is not a config key")
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
    # test-suite: RunConfig has checked the name and that suites_dir is set
    return SuiteTestCriterion(load_suite(suites_dir / example.question_id, schema))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_suite(config: RunConfig) -> int:
    dataset = config.dataset()
    suite_cfg = config.suite_config()
    n_neighbors = config["suite"]["neighbors"]
    n_heldout = config["suite"]["heldout_neighbors"]
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
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
        stats = suite_stats(suites, heldout_sets, executor)
    with open(out_dir / "stats.json", "w") as fh:
        json.dump(stats.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(stats.render())
    _write_manifest(out_dir, config, "build-suite")
    # a failed question does not abort the run, but the exit status reports it
    return 1 if failures else 0


def _heldout_neighbors(gold, schema, construction: NeighborSet, count: int, seed: int):
    """Up to `count` texts of the pool `construction` was sampled from, in a
    shuffle on another seed stream, leaving out every construction neighbor.
    `gold` and `schema` are not read: the pool holds checked texts."""
    if construction.pool is None:
        raise ValueError("the construction neighbor set keeps no pool")
    taken = set(construction.neighbors)
    shuffled = sample_neighbors(construction.pool, len(construction.pool), seed + 7919)
    return NeighborSet([text for text in shuffled if text not in taken][:count])


def _resuming(config: RunConfig) -> bool:
    """Whether search resumes in output_dir: it does where verdicts.jsonl
    exists, and only if manifest.json there names search under this config."""
    out_dir = Path(config["output_dir"])
    if not (out_dir / "verdicts.jsonl").exists():
        return False
    path = out_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        found = manifest["command"], manifest["config_hash"]
    except (OSError, ValueError, KeyError, TypeError):
        found = None, None
    if found != ("search", config.hash()):
        raise SystemExit(f"{out_dir} holds another run's verdicts: {path} names command "
                         f"{found[0]!r} with config_hash {found[1]!r}, and this search has "
                         f"config_hash {config.hash()!r}; resume under that config or pick "
                         "another output_dir")
    return True


def cmd_search(config: RunConfig) -> int:
    suites_dir = config.search_suites_dir()
    resuming = _resuming(config)
    dataset = config.dataset()
    method = config.method_config()
    scorer = config.scorer(dataset)
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, config, "search")  # so an interrupted run has one

    verdict_path = out_dir / "verdicts.jsonl"
    timing_path = out_dir / "timings.jsonl"
    done: dict[str, dict] = {}
    if resuming:  # keep answers and their wall times, retry errored questions
        done = {qid: rec for qid, rec in _read_verdicts(verdict_path).items()
                if "error" not in rec}
        _write_verdicts(verdict_path, done)  # drops a line an interrupt cut off
        if timing_path.exists():  # likewise a cut-off wall time
            _write_verdicts(timing_path, _read_verdicts(timing_path, {"question_id": str}))
    # each verdict and its wall time are appended as they are made, so an
    # interrupted run keeps them
    with config.executor() as executor, open(verdict_path, "a") as log, \
            open(timing_path, "a" if resuming else "w") as times:
        for example in dataset.examples:
            if example.question_id in done:
                continue
            timing = None
            try:
                ctx = QuestionContext(
                    schema=dataset.schema_for(example),
                    executor=executor,
                    database=dataset.database_for(example),
                )
                criterion = _build_criterion(
                    config["criterion"], example, dataset, ctx, suites_dir
                )
                start = time.monotonic()
                verdict = guided_search(
                    ctx, scorer, method, criterion, question_id=example.question_id
                )
                timing = {"question_id": example.question_id,
                          "wall_time": time.monotonic() - start}
                done[example.question_id] = verdict.to_json()
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
            log.write(json.dumps(done[example.question_id], sort_keys=True) + "\n")
            log.flush()
            if timing is not None:
                times.write(json.dumps(timing, sort_keys=True) + "\n")
                times.flush()
    _write_verdicts(verdict_path, done)
    errors = sum("error" in rec for rec in done.values())
    print(f"wrote {len(done)} verdicts to {verdict_path} ({errors} errored)")
    return 1 if errors else 0


BEAM_CURVE_CAPS = (1, 10, 100, 800)


def cmd_evaluate(config: RunConfig, verdicts_path: str | None = None,
                 beam_curve: bool = False) -> int:
    method, criterion = config["search"]["method"], config["criterion"]
    if beam_curve:
        if (method, criterion) != ("cab", "test-suite"):
            raise SystemExit("--beam-curve reads the stages of cab search under test-suite; "
                             f"search.method is {method!r}, criterion {criterion!r}")
        config.search_suites_dir()
    suites_dir = config.suites_dir()
    out_dir = Path(config["output_dir"])
    verdicts_file = Path(verdicts_path or out_dir / "verdicts.jsonl")
    if not verdicts_file.is_file():
        raise SystemExit(f"no verdicts file at {verdicts_file}; run `search` first")
    verdicts = _read_verdicts(verdicts_file)
    if beam_curve:
        method_config = config.method_config()
        beam_sizes = method_config.resolved_schedule().beam_sizes
        stale = [qid for qid, rec in verdicts.items() if "error" not in rec
                 and rec.get("accepted_stage", -1) not in (None, *range(len(beam_sizes)))]
        if stale:
            raise SystemExit(f"{verdicts_file}: {len(stale)} verdicts ({stale[0]}, ...) lack an "
                             "accepted_stage of search.schedule; re-run search to derive "
                             "the beam curve")
    dataset = config.dataset()
    if beam_curve:
        scorer = config.scorer(dataset)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve: list[list[bool]] = []  # per question, a hit or miss per cap

    report = RunReport()
    failures = 0
    with config.executor() as executor:
        for example in dataset.examples:
            rec = verdicts.get(example.question_id)
            if rec is None:
                continue
            predicted = rec["selected"]
            suite_dir = _suite_dir(suites_dir, example)
            suite = original = None
            try:
                schema = dataset.schema_for(example)
                original = dataset.database_for(example)
                suite_match = None
                if suite_dir is not None:
                    suite = load_suite(suite_dir, schema)
                    suite_match = test_suite_accuracy(
                        example.gold_query, predicted, suite, executor, original_db=original,
                    )
                exact_match = exact_set_match_text(example.gold_query, predicted, schema)
                execution_match = execution_accuracy(
                    example.gold_query, predicted, original, executor,
                )
            except Exception as exc:
                # the question counts as not matching; the others still count
                failures += 1
                print(f"[evaluate] {example.question_id} failed: {exc}", file=sys.stderr)
                exact_match = execution_match = False
                suite_match = False if suite_dir is not None else None
            report.records.append(
                EvalRecord(
                    question_id=example.question_id,
                    gold_query=example.gold_query,
                    predicted_query=predicted,
                    exact_match=exact_match,
                    execution_match=execution_match,
                    suite_match=suite_match,
                    criterion=criterion,
                    method=method,
                    fallback_used=rec["fallback_used"],
                )
            )
            if not beam_curve or suite_dir is None:
                continue
            # A search capped at `cap` runs a prefix of the schedule (or the
            # lone (1, 1) stage, whose candidate is the greedy decode), so it
            # picks what this run picked if that stage's beam fits the cap,
            # and the greedy decode otherwise. An errored verdict misses, and
            # so does a question whose suite did not load, reported above.
            if "error" in rec or suite is None:
                curve.append([False] * len(BEAM_CURVE_CAPS))
                continue
            stage = rec["accepted_stage"]
            fits = [stage is None or beam_sizes[stage] <= cap for cap in BEAM_CURVE_CAPS]
            greedy_match = False
            if not all(fits):
                try:
                    greedy_match = test_suite_accuracy(
                        example.gold_query, greedy_decode(scorer, method_config.temperature).text,
                        suite, executor, original_db=original,
                    )
                except Exception as exc:
                    failures += 1
                    print(f"[evaluate] beam curve, {example.question_id} failed: {exc}",
                          file=sys.stderr)
            curve.append([suite_match if fit else greedy_match for fit in fits])
        with open(out_dir / "report.json", "w") as fh:
            fh.write(report.dumps())
        with open(out_dir / "report.txt", "w") as fh:
            fh.write(report.render() + "\n")
        print(report.render())
    if beam_curve:
        _write_csv(out_dir / "beam_curve.csv", [
            {"max_beam": cap,
             "ts_accuracy": sum(hits[i] for hits in curve) / len(curve) if curve else 0.0}
            for i, cap in enumerate(BEAM_CURVE_CAPS)
        ])
    return 1 if failures else 0


# the fields `evaluate` reads from every verdict, with their types
_VERDICT_FIELDS = {"question_id": str, "selected": str, "fallback_used": bool}


def _read_verdicts(path: Path, fields: dict[str, type] = _VERDICT_FIELDS) -> dict[str, dict]:
    """The last record of each question. A final line that does not parse
    was cut off by an interrupted search: skipped, so resume retries it.
    Any other line that is not UTF-8 JSON, or a record without a value of
    each of `fields`' types, stops the command naming the file and line."""
    lines = path.read_bytes().splitlines()
    last = max((n for n, line in enumerate(lines) if line.strip()), default=-1)
    records = {}
    for n, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode())
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            if n == last:
                break
            what = "not UTF-8" if isinstance(exc, UnicodeDecodeError) else "not JSON"
            raise SystemExit(f"{path}:{n + 1}: {what}: {exc}") from None
        if not isinstance(rec, dict):
            raise SystemExit(f"{path}:{n + 1}: not a JSON object")
        for name, kind in fields.items():
            if not isinstance(rec.get(name), kind):
                found = repr(rec[name]) if name in rec else "missing"
                raise SystemExit(f"{path}:{n + 1}: {name!r} must be a {kind.__name__}, "
                                 f"not {found}")
        records[rec["question_id"]] = rec
    return records


def _write_verdicts(path: Path, verdicts: dict[str, dict]) -> None:
    """Rewrite the verdicts file sorted by question id, replacing it whole."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        for qid in sorted(verdicts):
            fh.write(json.dumps(verdicts[qid], sort_keys=True) + "\n")
    os.replace(tmp, path)


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _suite_dir(suites_dir: Path | None, example: DatasetExample) -> Path | None:
    if suites_dir is None or not (suites_dir / example.question_id).exists():
        return None
    return suites_dir / example.question_id


def cmd_suite_stats(config: RunConfig, suites_path: str | None = None) -> int:
    dataset = config.dataset()
    suites_dir = Path(suites_path or config["suites_dir"] or config["output_dir"])
    if not any((suites_dir / e.question_id).exists() for e in dataset.examples):
        raise SystemExit(f"suite-stats: {suites_dir} holds no suite of a dataset question")
    n_heldout = config["suite"]["heldout_neighbors"]
    failures = 0
    suites = []
    heldout_sets = []
    with config.executor() as executor:
        for example in dataset.examples:
            suite_dir = suites_dir / example.question_id
            if not suite_dir.exists():
                continue
            try:
                schema = dataset.schema_for(example)
                suite = load_suite(suite_dir, schema)
                # the gold build-suite parsed, and the neighbors and seed the
                # suite was built with, whatever the catalog and config say now
                gold = parse(example.gold_query, schema)
                construction = NeighborSet(suite.construction_neighbors,
                                           neighbor_pool(gold, schema))
                heldout = _heldout_neighbors(gold, schema, construction, n_heldout,
                                             suite.config.seed)
            except Exception as exc:
                failures += 1
                print(f"[suite-stats] {example.question_id} failed: {exc}", file=sys.stderr)
                continue
            suites.append(suite)
            heldout_sets.append(heldout)
        stats = suite_stats(suites, heldout_sets, executor)
    print(stats.render())
    return 1 if failures else 0


def cmd_sweep(config: RunConfig, param: str, values: list[str]) -> int:
    out_dir = Path(config["output_dir"])
    subs = []  # every value is checked, with search's own rule, before the first run
    for value in values:
        data = json.loads(json.dumps(config.data))  # a deep copy: every config value is JSON
        _set_path(data, param.split("."), _yaml_value(param, value))
        data["output_dir"] = str(out_dir / f"{param.replace('.', '_')}_{value}")
        sub = RunConfig(data)
        sub.search_suites_dir()
        sub.suites_dir()  # evaluate reads it under any criterion
        _resuming(sub)
        subs.append((value, sub))
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    failed = False
    for value, sub in subs:
        failed |= cmd_search(sub) != 0
        failed |= cmd_evaluate(sub) != 0
        with open(Path(sub.data["output_dir"]) / "report.json") as fh:
            report = json.load(fh)
        rows.append({
            "value": value,
            "exact_set_match": report["exact_set_match"],
            "execution_accuracy": report["execution_accuracy"],
            "test_suite_accuracy": report["test_suite_accuracy"],
        })
    _write_csv(out_dir / "sweep.csv", rows)
    print(f"sweep over {param}: {len(rows)} runs, summary in {out_dir / 'sweep.csv'}")
    return 1 if failed else 0


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
