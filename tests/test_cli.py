import collections
import csv
import dataclasses
import inspect
import json
import re
import shutil
import sqlite3
from pathlib import Path

import pytest
import yaml

from guidedsql.cli import _KEYS, RunConfig, _heldout_neighbors, main
from guidedsql.criteria import MethodConfig, QuestionContext, SuiteTestCriterion, guided_search
from guidedsql.datasets import load_dataset
from guidedsql.executor import DatabaseInstance, QueryExecutor
from guidedsql.metrics import test_suite_accuracy as ts_match
from guidedsql.parser import parse
from guidedsql.query_ast import print_query
from guidedsql.scorer import NgramScorer
from guidedsql.search import greedy_decode
from guidedsql.testsuite import (
    SuiteConfig, _edit_texts, generate_neighbors, load_suite, suite_stats,
)

from conftest import (
    DATABASE_SPOILS,
    make_concert_db,
    make_concert_schema,
    spoil_database,
    write_dataset,
)

EXAMPLES = [
    ("concert", "select name from singer where age > 30"),
    ("concert", "select count(*) from singer where age >= 25"),
    ("concert", "select venue from concert where attendance > 500"),
    ("concert", "select name from singer order by age desc limit 3"),
    ("concert", "select country, count(*) from singer group by country"),
    ("concert", "select max(attendance) from concert where year = 2015"),
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    schema = make_concert_schema()
    write_dataset(root, EXAMPLES, {"concert": schema},
                  {"concert": make_concert_db(schema)})
    return root


def write_config(path, dataset_dir, out_dir, **extra):
    config = {
        "dataset": {
            "examples": str(dataset_dir / "examples.json"),
            "tables": str(dataset_dir / "tables.json"),
            "databases": str(dataset_dir / "database"),
        },
        "output_dir": str(out_dir),
        "time_limit": 5.0,
        "search": {"schedule": {"beam_sizes": [2, 6], "widths": [2, 3]}},
        "suite": {"max_dbs": 3, "max_attempts": 40, "nonempty_attempts": 20,
                  "row_cap": 20, "neighbors": 8, "heldout_neighbors": 4},
    }
    for key, value in extra.items():
        config[key] = value
    path.write_text(yaml.safe_dump(config))
    return path


def test_run_config_overrides_and_hash(tmp_path, dataset_dir):
    cfg_path = write_config(tmp_path / "c.yaml", dataset_dir, tmp_path / "out")
    base = RunConfig.load(cfg_path)
    tweaked = RunConfig.load(cfg_path, ["search.temperature=2.0", "scorer.order=2"])
    assert tweaked["search"]["temperature"] == 2.0
    assert tweaked["scorer"]["order"] == 2
    assert base.hash() != tweaked.hash()
    assert base.hash() == RunConfig.load(cfg_path).hash()
    with pytest.raises(SystemExit):
        RunConfig.load(cfg_path, ["no-equals-sign"])
    # the defaults, and so every manifest's hash, are as before the key table
    assert RunConfig.load(None).hash() == "c27362301f96269c"
    # YAML reads 1e-3 as text; a number key takes whatever float() reads
    small = RunConfig.load(cfg_path, ["search.temperature=1e-3", "time_limit=1e-3"])
    assert small["search"]["temperature"] == "1e-3"
    assert small.method_config().temperature == 0.001


def test_readme_minimal_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"A minimal config:\n\n```yaml\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "c.yaml").write_text(block)
    config = RunConfig.load(tmp_path / "c.yaml")

    def keys(data, prefix=""):
        for name, value in data.items():
            if isinstance(value, dict):
                yield from keys(value, f"{prefix}{name}.")
            else:
                yield f"{prefix}{name}"

    written = list(keys(yaml.safe_load(block)))
    assert len(written) > 10 and set(written) <= set(_KEYS)
    assert config["search"]["method"] == "cab"


def test_cli_defaults_are_the_library_defaults():
    # the benchmark builds the library's objects with their own defaults,
    # while the CLI takes its defaults from _KEYS
    library = {f"suite.{name}": value for name, value in SuiteConfig().to_json().items()}
    library |= {f"search.{name}": value
                for name, value in dataclasses.asdict(MethodConfig()).items()}
    ngram = inspect.signature(NgramScorer).parameters
    library |= {f"scorer.{name}": ngram[name].default for name in ("order", "alpha", "max_length")}
    library["time_limit"] = inspect.signature(QueryExecutor).parameters["time_limit"].default
    assert len(library) == 16
    assert {key: _KEYS[key][0] for key in library} == library


def test_missing_dataset_paths_rejected(tmp_path):
    cfg = RunConfig.load(None)
    with pytest.raises(SystemExit):
        cfg.dataset()


def test_search_and_evaluate_end_to_end(tmp_path, dataset_dir):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    assert main(["-c", str(cfg), "search"]) == 0
    verdicts = [
        json.loads(line)
        for line in (out_dir / "verdicts.jsonl").read_text().splitlines()
    ]
    assert len(verdicts) == len(EXAMPLES)
    assert all("wall_time" not in v for v in verdicts)
    assert (out_dir / "timings.jsonl").exists()
    assert (out_dir / "manifest.json").exists()

    assert main(["-c", str(cfg), "evaluate"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["total"] == len(EXAMPLES)
    # the execution criterion only demands error-free candidates, so every
    # question should resolve without falling back to the greedy decode
    assert report["fallbacks"] == 0
    assert 0.0 <= report["execution_accuracy"] <= 1.0
    assert (out_dir / "report.txt").read_text().startswith("Metric")
    # a suites_dir without a suite of a question leaves that question unscored
    (tmp_path / "no-suites").mkdir()
    assert main(["-c", str(cfg), "--set", f"suites_dir={tmp_path / 'no-suites'}",
                 "evaluate"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["suite_unavailable"] == len(EXAMPLES)
    assert all(r["suite_match"] is None for r in report["records"])


def test_search_resume_skips_done_questions(tmp_path, dataset_dir):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    main(["-c", str(cfg), "search"])
    first = (out_dir / "verdicts.jsonl").read_text()
    # corrupt one verdict; a resumed run must keep it untouched
    records = [json.loads(line) for line in first.splitlines()]
    records[0]["selected"] = "select 'resumed marker'"
    with open(out_dir / "verdicts.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    main(["-c", str(cfg), "search"])
    resumed = (out_dir / "verdicts.jsonl").read_text()
    assert "resumed marker" in resumed


def test_interrupted_search_keeps_its_answers(tmp_path, dataset_dir, monkeypatch):
    whole_dir = tmp_path / "whole"
    assert main(["-c", str(write_config(tmp_path / "w.yaml", dataset_dir, whole_dir)),
                 "search"]) == 0
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    searched = []

    def interrupted_at_fourth(ctx, scorer, method, criterion, question_id=""):
        if len(searched) == 3:
            raise KeyboardInterrupt
        searched.append(question_id)
        return guided_search(ctx, scorer, method, criterion, question_id=question_id)

    monkeypatch.setattr("guidedsql.cli.guided_search", interrupted_at_fourth)
    with pytest.raises(KeyboardInterrupt):
        main(["-c", str(cfg), "search"])
    verdict_path = out_dir / "verdicts.jsonl"
    kept = [json.loads(line)["question_id"] for line in verdict_path.read_text().splitlines()]
    assert kept == searched == ["q0000", "q0001", "q0002"]

    # a write the interrupt cut off is skipped, and its question searched again
    with open(verdict_path, "a") as fh:
        fh.write('{"question_id": "q0003", "sel')
    searched.clear()

    def recorded(ctx, scorer, method, criterion, question_id=""):
        searched.append(question_id)
        return guided_search(ctx, scorer, method, criterion, question_id=question_id)

    monkeypatch.setattr("guidedsql.cli.guided_search", recorded)
    assert main(["-c", str(cfg), "search"]) == 0
    assert searched == ["q0003", "q0004", "q0005"]
    assert verdict_path.read_bytes() == (whole_dir / "verdicts.jsonl").read_bytes()
    # the wall times of the questions answered before the interrupt are kept
    timed = [json.loads(line)["question_id"]
             for line in (out_dir / "timings.jsonl").read_text().splitlines()]
    assert sorted(timed) == [f"q{i:04d}" for i in range(len(EXAMPLES))]


def test_search_resumes_only_under_the_config_that_wrote_the_verdicts(
        tmp_path, dataset_dir, monkeypatch):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    assert main(["-c", str(cfg), "search"]) == 0
    names = ("verdicts.jsonl", "timings.jsonl", "manifest.json")
    written = {name: (out_dir / name).read_bytes() for name in names}
    unique = ["--set", "search.method=unique", "--set", "search.temperature=0.5"]

    def no_search(*args, **kwargs):
        raise AssertionError("a refused resume must not search")

    monkeypatch.setattr("guidedsql.cli.guided_search", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), *unique, "search"])
    assert exc.value.code not in (0, None)
    message = str(exc.value.code)
    assert str(out_dir / "manifest.json") in message
    assert json.loads(written["manifest.json"])["config_hash"] in message
    assert RunConfig.load(cfg, [unique[1], unique[3]]).hash() in message
    assert {name: (out_dir / name).read_bytes() for name in names} == written

    # a sweep checks every value's directory before its first run
    sweep_dir = tmp_path / "sweep"
    shutil.copytree(out_dir, sweep_dir / "search_temperature_2.0")
    with pytest.raises(SystemExit):
        main(["-c", str(write_config(tmp_path / "s.yaml", dataset_dir, sweep_dir)),
              "sweep", "--param", "search.temperature", "--values", "1.0", "2.0"])
    assert not (sweep_dir / "search_temperature_1.0").exists()

    # verdicts that no manifest, or another command's, vouches for
    (out_dir / "manifest.json").write_text(json.dumps({"command": "build-suite"}))
    with pytest.raises(SystemExit):
        main(["-c", str(cfg), "search"])
    (out_dir / "manifest.json").unlink()
    with pytest.raises(SystemExit):
        main(["-c", str(cfg), "search"])
    assert (out_dir / "verdicts.jsonl").read_bytes() == written["verdicts.jsonl"]


def test_build_suite_and_suite_stats(tmp_path, dataset_dir, capsys):
    suites_dir = tmp_path / "suites"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, suites_dir)
    assert main(["-c", str(cfg), "build-suite"]) == 0
    stats = json.loads((suites_dir / "stats.json").read_text())
    assert set(stats) == {"NoEmpty", "Cover", "Tests", "Time", "Size"}
    built = sorted(p.name for p in suites_dir.iterdir() if p.is_dir())
    assert built == [f"q{i:04d}" for i in range(len(EXAMPLES))]

    assert stats["Time"] > 0
    capsys.readouterr()
    assert main(["-c", str(cfg), "suite-stats", "--suites", str(suites_dir)]) == 0
    assert "NoEmpty" in capsys.readouterr().out


@pytest.fixture(scope="module")
def suites_dir(tmp_path_factory, dataset_dir):
    root = tmp_path_factory.mktemp("suites")
    suites_dir = root / "suites"
    main(["-c", str(write_config(root / "c.yaml", dataset_dir, suites_dir)),
          "build-suite"])
    return suites_dir


@pytest.mark.parametrize("seed", [3, 11])
def test_suite_stats_rebuilds_neighbors_from_each_suites_own_seed(
        tmp_path, dataset_dir, suites_dir, capsys, seed):
    # the suites were built at suite.seed 0; the config now names another
    stats = json.loads((suites_dir / "stats.json").read_text())
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, tmp_path / "out")
    capsys.readouterr()
    assert main(["-c", str(cfg), "--set", f"suite.seed={seed}",
                 "suite-stats", "--suites", str(suites_dir)]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert (float(row[0].rstrip("%")), float(row[1].rstrip("%"))) == (
        stats["NoEmpty"], stats["Cover"])


def test_suite_stats_reads_the_saved_construction_neighbors(
        tmp_path, dataset_dir, suites_dir, capsys):
    # suites whose saved neighbors are not the ones today's catalog makes:
    # the held-out neighbors must stay disjoint from the saved ones
    moved = tmp_path / "suites"
    shutil.copytree(suites_dir, moved)
    schema = make_concert_schema()
    for manifest_path in moved.glob("*/manifest.json"):
        manifest = json.loads(manifest_path.read_text())
        gold = parse(manifest["gold_query"], schema)
        manifest["construction_neighbors"] = generate_neighbors(
            gold, schema, len(manifest["construction_neighbors"]),
            seed=manifest["config"]["seed"] + 1).neighbors
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, tmp_path / "out")
    capsys.readouterr()
    assert main(["-c", str(cfg), "suite-stats", "--suites", str(moved)]) == 0
    assert "NoEmpty" in capsys.readouterr().out


# the parser makes BETWEEN and an IN list comparisons that share one column
# node, which their printed text does not
SHARED_COLUMN_EXAMPLES = [
    ("concert", "select name from singer where age between 20 and 30"),
    ("concert", "select venue from concert where year in (2014, 2015)"),
    ("concert", "select name from singer where age > 30"),
]


@pytest.fixture(scope="module")
def shared_column_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared")
    schema = make_concert_schema()
    write_dataset(root, SHARED_COLUMN_EXAMPLES, {"concert": schema},
                  {"concert": make_concert_db(schema)})
    return root


def _shared_column_config(tmp_path, dataset):
    return write_config(tmp_path / "c.yaml", dataset, tmp_path / "suites",
                        suite={"max_dbs": 3, "max_attempts": 40, "nonempty_attempts": 20,
                               "row_cap": 20, "neighbors": 6, "heldout_neighbors": 40})


def test_suite_stats_holds_out_the_neighbors_build_suite_held_out(
        tmp_path, shared_column_dataset, monkeypatch):
    cfg = _shared_column_config(tmp_path, shared_column_dataset)
    held_out = []

    def spy(suites, heldout_sets, executor, *args):
        held_out.append({s.query_id: h.neighbors for s, h in zip(suites, heldout_sets)})
        return suite_stats(suites, heldout_sets, executor, *args)

    monkeypatch.setattr("guidedsql.cli.suite_stats", spy)
    assert main(["-c", str(cfg), "build-suite"]) == 0
    assert main(["-c", str(cfg), "suite-stats"]) == 0
    built, restated = held_out
    assert sorted(built) == ["q0000", "q0001", "q0002"]
    assert restated == built


def _reference_heldout_texts(gold, schema, construction, count, seed):
    """The held-out texts as a second `generate_neighbors` call made them."""
    candidates = generate_neighbors(gold, schema, count * 4 + len(construction.neighbors),
                                    seed=seed + 7919)
    taken = set(construction.neighbors)
    return [t for t in candidates.neighbors if t not in taken][:count]


def test_heldout_neighbors_are_sampled_from_the_construction_pool(fixtures):
    for schema, _db, sql in fixtures:
        gold = parse(sql, schema)
        for seed in range(6):
            for n, count in ((12, 8), (40, 20)):
                construction = generate_neighbors(gold, schema, n, seed=seed)
                heldout = _heldout_neighbors(gold, schema, construction, count, seed)
                assert heldout.neighbors == _reference_heldout_texts(
                    gold, schema, construction, count, seed), (sql, seed, n)
                assert heldout.pool is None  # build-suite holds every held-out set


def test_build_suite_parses_each_neighbor_text_once(tmp_path, monkeypatch):
    schema = make_concert_schema()
    # BETWEEN's two comparisons share one column, so edits to it repeat texts
    sql = "select name from singer where age between 25 and 40 and country = 'US'"
    root = tmp_path / "data"
    write_dataset(root, [("concert", sql)], {"concert": schema},
                  {"concert": make_concert_db(schema)})
    cfg = write_config(tmp_path / "c.yaml", root, tmp_path / "suites",
                       suite={"max_dbs": 3, "max_attempts": 40, "nonempty_attempts": 20,
                              "row_cap": 20, "neighbors": 8, "heldout_neighbors": 40})
    parsed = collections.Counter()
    for module in ("guidedsql.cli", "guidedsql.testsuite"):
        monkeypatch.setattr(f"{module}.parse",
                            lambda text, schema: parsed.update([text]) or parse(text, schema))
    assert main(["-c", str(cfg), "build-suite"]) == 0
    gold = parse(sql, schema)
    texts = _edit_texts(gold, schema)
    variants = set(texts) - {print_query(gold)}
    assert len(variants) < len(texts)
    assert {t: parsed[t] for t in variants} == dict.fromkeys(variants, 1)


def test_suite_stats_fails_only_a_broken_suite(tmp_path, shared_column_dataset, capsys):
    cfg = _shared_column_config(tmp_path, shared_column_dataset)
    assert main(["-c", str(cfg), "build-suite"]) == 0
    suites_dir = tmp_path / "suites"
    whole = tmp_path / "whole"
    shutil.copytree(suites_dir, whole)
    shutil.rmtree(whole / "q0000")
    capsys.readouterr()
    assert main(["-c", str(cfg), "suite-stats", "--suites", str(whole)]) == 0
    want = capsys.readouterr().out
    # the other suites' stats, as if the broken one were not there
    (suites_dir / "q0000" / "db_000.sqlite").unlink()
    assert main(["-c", str(cfg), "suite-stats"]) == 1
    out, err = capsys.readouterr()
    assert "[suite-stats] q0000 failed:" in err
    assert out == want


def test_suite_stats_rejects_a_path_without_suites(tmp_path, dataset_dir, monkeypatch):
    monkeypatch.setattr("guidedsql.cli.suite_stats", None)  # no work starts
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, tmp_path / "run")
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "q9999").mkdir()  # a suite of no dataset question
    for path in (tmp_path / "nowhere", cfg, tmp_path / "other"):
        with pytest.raises(SystemExit) as exc:
            main(["-c", str(cfg), "suite-stats", "--suites", str(path)])
        assert exc.value.code not in (0, None) and str(path) in str(exc.value.code)
    # without --suites, the default output_dir is read
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), "suite-stats"])
    assert str(tmp_path / "run") in str(exc.value.code)


def test_search_with_suite_criterion(tmp_path, dataset_dir, suites_dir):
    out_dir = tmp_path / "run"
    cfg2 = write_config(
        tmp_path / "c2.yaml", dataset_dir, out_dir,
        criterion="test-suite", suites_dir=str(suites_dir),
    )
    assert main(["-c", str(cfg2), "search"]) == 0
    assert main(["-c", str(cfg2), "evaluate"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["suite_unavailable"] == 0


def test_sweep_writes_summary(tmp_path, dataset_dir):
    out_dir = tmp_path / "sweep"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    assert main(["-c", str(cfg), "sweep", "--param", "search.temperature",
                 "--values", "1.0", "2.0"]) == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,exact_set_match,execution_accuracy,test_suite_accuracy"
    assert len(lines) == 3


def _capped_rerun_curve(cfg_path):
    """The beam curve as capped re-runs: suite-guided CAB search over the
    dataset once per cap, scored by TS."""
    config = RunConfig.load(cfg_path)
    dataset = config.dataset()
    scorer = config.scorer(dataset)
    method = config.method_config()
    time_limit = config["time_limit"]
    rows = []
    with config.executor() as executor:
        for cap in (1, 10, 100, 800):
            capped = dataclasses.replace(
                method, schedule=method.resolved_schedule().capped(cap))
            hits = []
            for example in dataset.examples:
                schema = dataset.schema_for(example)
                suite = load_suite(Path(config["suites_dir"]) / example.question_id, schema)
                ctx = QuestionContext(schema, executor, dataset.database_for(example),
                                      time_limit)
                verdict = guided_search(ctx, scorer, capped, SuiteTestCriterion(suite))
                hits.append(ts_match(example.gold_query, verdict.selected, suite,
                                     executor, time_limit, original_db=ctx.database))
            rows.append({"max_beam": str(cap), "ts_accuracy": str(sum(hits) / len(hits))})
    return rows


def test_evaluate_beam_curve(tmp_path, dataset_dir, suites_dir, monkeypatch):
    out_dir = tmp_path / "run"
    # cap 1 holds no stage, so it runs the lone (1, 1) stage; caps 10 and 100
    # run a proper prefix of the schedule, and cap 10 equals a stage's beam
    cfg = write_config(
        tmp_path / "c.yaml", dataset_dir, out_dir,
        criterion="test-suite", suites_dir=str(suites_dir),
        search={"schedule": {"beam_sizes": [2, 10, 40, 300], "widths": [2, 2, 2, 3]},
                "temperature": 2.0},
        scorer={"order": 2},
    )
    assert main(["-c", str(cfg), "search"]) == 0
    reference = _capped_rerun_curve(cfg)

    def no_search(*args, **kwargs):
        raise AssertionError("evaluate must not search")

    decoded = []

    def counted_greedy_decode(*args, **kwargs):
        decoded.append(args)
        return greedy_decode(*args, **kwargs)

    monkeypatch.setattr("guidedsql.cli.guided_search", no_search)
    monkeypatch.setattr("guidedsql.cli.greedy_decode", counted_greedy_decode)
    assert main(["-c", str(cfg), "evaluate", "--beam-curve"]) == 0
    with open(out_dir / "beam_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == reference
    # a fallback's selection is the greedy decode, so only the questions
    # that accepted at a stage wider than cap 1 decode greedily once more
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").open()]
    assert len(decoded) == sum(v["accepted_stage"] is not None for v in verdicts)
    accuracies = [float(r["ts_accuracy"]) for r in rows]
    # the run accepts at several stages, so the rows differ
    assert accuracies == sorted(accuracies) and len(set(accuracies)) > 2
    report = json.loads((out_dir / "report.json").read_text())
    assert round(accuracies[-1], 4) == report["test_suite_accuracy"]


def test_unknown_search_method_rejected_before_search(tmp_path, dataset_dir):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), "--set", "search.method=unique-random", "search"])
    assert exc.value.code not in (0, None)
    assert not (out_dir / "verdicts.jsonl").exists()


def test_bad_replay_file_rejected_before_search(tmp_path, dataset_dir):
    replay = tmp_path / "replay.jsonl"
    replay.write_text(json.dumps({"vocab": ["select", "</s>"], "max_length": 4}) + "\n"
                      + json.dumps({"prefix": [], "probs": [0.5, 0.5]}) + "\n"
                      + json.dumps({"prefix": [0], "probs": [0.7, 0.7]}) + "\n")
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir,
                       scorer={"type": "replay", "replay_file": str(replay)})
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), "search"])
    assert exc.value.code not in (0, None)
    assert f"{replay}:3" in str(exc.value.code)
    assert not (out_dir / "verdicts.jsonl").exists()


def _set_flags(settings: str) -> tuple[list[str], str]:
    """`--set` flags for key=value settings joined by "; ", and the last key."""
    pairs = settings.split("; ")
    return [a for pair in pairs for a in ("--set", pair)], pairs[-1].partition("=")[0]


@pytest.mark.parametrize("setting", [
    "criterion=exact",
    "criterion=test-suite",
    "search.k=0",
    "search.k=-3",
    "search.k=2.5",
    "search.k=true",
    "search.p=1.5",
    "search.p=0",
    "search.temperature=0",
    "search.temperature=true",
    "search.temprature=2",
    "search.method=unique; search.seed=-1",
    "scorer.order=0",
    "scorer.alpha=0",
    "scorer.max_length=0",
    "scorer.type=bigram",
    "time_limit=0",
    "time_limit=-1",
    "search.schedule=[1,2]",
    "search.schedule=t6",
    pytest.param("search.schedule={beam_sizes: [6, 2], widths: [2, 2]}",
                 id="search.schedule=decreasing"),
    pytest.param("search.schedule={beam_sizes: [2, 6]}", id="search.schedule=no-widths"),
    pytest.param("search.schedule={beam_sizes: [2, 6], widths: [2, 2], extra: 1}",
                 id="search.schedule=extra-key"),
    pytest.param("search.schedule={beam_sizes: [2, 6.5], widths: [2, 2]}",
                 id="search.schedule=float-beam"),
    "criterion=test-suite; suites_dir=nowhere",
    "criterion=test-suite; suites_dir=c.yaml",
])
def test_bad_criterion_rejected_before_search(tmp_path, dataset_dir, setting, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths in settings resolve here
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)

    def no_scorer(self, dataset):
        raise AssertionError("rejected only after training the scorer")

    monkeypatch.setattr(RunConfig, "scorer", no_scorer)
    flags, key = _set_flags(setting)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), *flags, "search"])
    assert str(exc.value.code).startswith(key + " ")
    assert not out_dir.exists()


@pytest.mark.parametrize("command, setting", [
    ("search", "search.k=abc"),
    ("search", "search.temperature=warm"),
    ("search", "search.seed=x"),
    ("search", "scorer.order=x"),
    ("search", "scorer.max_length=[64]"),
    ("search", "time_limit=abc"),
    ("search", "search.seed=["),  # not YAML
    ("search", "scorer.type=replay; scorer.replay_file=null"),
    ("search", "scorer.type=replay; scorer.replay_file=no-such-file.jsonl"),
    ("search", "scorer.replay_file=7"),
    ("search", "output_dir=null"),
    ("build-suite", "suite.max_dbs=x"),
    ("build-suite", "suite.max_dbs=0"),
    ("build-suite", "suite.hint_prob=often"),
    ("build-suite", "suite.hint_prob=7"),
    ("build-suite", "suite.neighbors=x"),
    ("build-suite", "suite.neighbors=0"),
    ("build-suite", "suite.heldout_neighbors=x"),
    ("build-suite", "suite.heldout_neighbors=0"),
    ("build-suite", "suite.row_cap=0"),
    ("build-suite", "suite.seed=-1"),
    ("build-suite", "suite.max_attempts=-1"),
    ("build-suite", "suite.nonempty_attempts=-5"),
    ("build-suite", "suite=3"),
    ("build-suite", "time_limit=abc"),
    ("search", "search.temperature=nan"),
    ("evaluate --beam-curve", "criterion=test-suite"),
    # sweep checks every value, and its --param, before its first run
    ("sweep --param search.k --values 5 0", "search.k=5"),
    ("sweep --param search.k --values 5 [", "search.k"),
    ("sweep --param search.temprature --values 1 2", "search.temprature"),
    ("sweep --param criterion --values execution test-suite", "criterion"),
    # evaluate reads suites_dir under any criterion, so it must name a directory
    ("evaluate", "suites_dir=nowhere"),
    ("evaluate --beam-curve", "criterion=test-suite; suites_dir=nowhere"),
    ("sweep --param search.k --values 5 6", "suites_dir=nowhere"),
    ("sweep --param suites_dir --values c.yaml", "suites_dir"),
])
def test_non_numeric_config_value_rejected_before_output_dir(
        tmp_path, dataset_dir, command, setting, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths in settings resolve here
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    flags, key = _set_flags(setting)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), *(flags if "=" in setting else []), *command.split()])
    assert str(exc.value.code).startswith(key + " ")
    assert not out_dir.exists()


@pytest.mark.parametrize("config, start", [
    ("nope.yaml", "nope.yaml: cannot read the config file"),
    ("bad.yaml", "bad.yaml: not a YAML file (line 3, column 1: "),
], ids=["missing", "not-yaml"])
def test_unreadable_config_file_rejected_naming_it(tmp_path, config, start, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.yaml").write_text("search: [\n  k: 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["-c", config, "search"])
    message = str(exc.value.code)
    assert message.startswith(start) and "\n" not in message


@pytest.mark.parametrize("fault, message", [
    ("duplicate-id", "question_id 'q0000' appears more than once"),
    ("unknown-db", "lacks: ['nowhere']"),
    ("no-query", "example 1 has no 'query' field"),
    ("no-db_id", "example 1 has no 'db_id' field"),
])
def test_bad_dataset_layout_rejected_naming_the_file(tmp_path, fault, message):
    data = tmp_path / "data"
    examples_file, _, _ = write_dataset(data, EXAMPLES[:3], {"concert": make_concert_schema()},
                                        {"concert": make_concert_db(make_concert_schema())})
    records = json.loads(examples_file.read_text())
    if fault == "duplicate-id":
        records[1]["question_id"] = records[2]["question_id"] = "q0000"
    elif fault == "unknown-db":
        records[1]["db_id"] = "nowhere"
    else:
        del records[1][fault.removeprefix("no-")]
    examples_file.write_text(json.dumps(records))
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", data, out_dir)
    for command in ("search", "build-suite"):
        with pytest.raises(SystemExit) as exc:
            main(["-c", str(cfg), command])
        assert str(exc.value.code).startswith(str(examples_file))
        assert message in str(exc.value.code)
    assert not out_dir.exists()


def _tables_without(field):
    def edit(records):
        del records[0][field]
        return records
    return edit


def _example_with(field, value):
    def edit(records):
        records[1][field] = value
        return records
    return edit


@pytest.mark.parametrize("target, edit, message", [
    ("examples", lambda records: records[0], "not a list of examples"),
    ("examples", lambda records: [records[0], 3], "example 1 is not an object"),
    ("examples", "[{", "not a JSON file"),
    ("examples", _example_with("query", None), "example 1's 'query' is null, not a string"),
    ("examples", _example_with("question", 5), "example 1's 'question' is 5, not a string"),
    ("examples", _example_with("db_id", ["concert"]),
     """example 1's 'db_id' is ["concert"], not a string"""),
    ("tables", "not json", "not a JSON file"),
    ("tables", lambda records: {}, "not a list of schema records"),
    ("tables", lambda records: ["concert"], "record 0 is not an object"),
    ("tables", _tables_without("table_names_original"),
     "record 0 has no 'table_names_original' field"),
    ("tables", lambda records: [{**records[0], "primary_keys": [0]}],
     "record 0: key refers to the '*' column"),
    ("tables", lambda records: records + records,
     "record 1: db_id 'concert' appears more than once"),
    ("tables", lambda records: [{**records[0], "db_id": 7}], "record 0: db_id 7 is not a string"),
], ids=["examples-object", "examples-non-object", "examples-not-json", "query-null",
        "question-number", "db_id-list", "tables-not-json", "tables-object",
        "tables-non-object", "tables-no-table-names", "tables-schema-error",
        "tables-repeated-db_id", "tables-db_id-number"])
def test_malformed_dataset_file_rejected_naming_it(tmp_path, target, edit, message):
    schema = make_concert_schema()
    paths = write_dataset(tmp_path / "data", EXAMPLES[:3], {"concert": schema},
                          {"concert": make_concert_db(schema)})
    path = paths[0] if target == "examples" else paths[1]
    path.write_text(edit if isinstance(edit, str)
                    else json.dumps(edit(json.loads(path.read_text()))))
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", tmp_path / "data", out_dir)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), "search"])
    assert str(exc.value.code).startswith(f"{path}: ")
    assert message in str(exc.value.code)
    assert not out_dir.exists()


def test_empty_dataset_rejected_naming_the_examples_file(tmp_path):
    schema = make_concert_schema()
    examples_file, _, _ = write_dataset(tmp_path / "data", [], {"concert": schema},
                                        {"concert": make_concert_db(schema)})
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", tmp_path / "data", out_dir)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), "search"])
    assert str(exc.value.code).startswith(f"{examples_file}: holds no examples")
    assert not out_dir.exists()


def test_order_too_high_to_pack_a_context_rejected_before_search(tmp_path, dataset_dir):
    # the fixture's 30 tokens and EOS pack a context in base 32: order 40
    # would need 195 bits
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), "--set", "scorer.order=40", "search"])
    assert str(exc.value.code).startswith("scorer.order 40 ")
    assert "overflows int64" in str(exc.value.code)
    assert not out_dir.exists()


def test_evaluate_without_verdicts_says_to_run_search_first(tmp_path, dataset_dir):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    for args, missing in ((["evaluate"], out_dir / "verdicts.jsonl"),
                          (["evaluate", "--verdicts", str(tmp_path / "v.jsonl")],
                           tmp_path / "v.jsonl")):
        with pytest.raises(SystemExit) as exc:
            main(["-c", str(cfg), *args])
        assert str(missing) in str(exc.value.code)
        assert "run `search` first" in str(exc.value.code)
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def searched_run(tmp_path_factory, dataset_dir):
    root = tmp_path_factory.mktemp("searched")
    cfg = write_config(root / "c.yaml", dataset_dir, root / "run")
    assert main(["-c", str(cfg), "search"]) == 0
    return cfg, root / "run" / "verdicts.jsonl"


@pytest.mark.parametrize("spoil, message", [
    (lambda rec: '{"question_id": "q0001", "sel', "not JSON"),
    (lambda rec: "[]", "not a JSON object"),
    (lambda rec: {k: v for k, v in rec.items() if k != "selected"},
     "'selected' must be a str, not missing"),
    (lambda rec: {**rec, "selected": None}, "'selected' must be a str, not None"),
    (lambda rec: {**rec, "question_id": 1}, "'question_id' must be a str, not 1"),
    (lambda rec: {k: v for k, v in rec.items() if k != "fallback_used"},
     "'fallback_used' must be a bool, not missing"),
    (lambda rec: b"\xff\xfe", "not UTF-8"),
], ids=["not-json", "not-object", "no-selected", "null-selected", "int-question-id",
        "no-fallback-used", "not-utf-8"])
def test_a_bad_verdicts_line_is_named_by_resume_and_evaluate(searched_run, spoil, message):
    # a bad line before the last one ended in a traceback, or failed its
    # question with a message naming neither the file nor the field
    cfg, path = searched_run
    whole = path.read_bytes()
    lines = whole.splitlines()
    line = spoil(json.loads(lines[1]))
    lines[1] = line if isinstance(line, bytes) else (
        line if isinstance(line, str) else json.dumps(line)).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        for command in ("search", "evaluate"):
            with pytest.raises(SystemExit) as exc:
                main(["-c", str(cfg), command])
            assert str(exc.value.code).startswith(f"{path}:2: {message}"), command
    finally:
        path.write_bytes(whole)


def test_evaluate_skips_a_torn_last_verdicts_line(searched_run):
    cfg, path = searched_run
    whole = path.read_text()
    with open(path, "a") as fh:
        fh.write('{"question_id": "q0006", "sel')
    try:
        assert main(["-c", str(cfg), "evaluate"]) == 0
    finally:
        path.write_text(whole)
    report = json.loads((path.parent / "report.json").read_text())
    assert report["total"] == len(EXAMPLES)


def _two_question_dataset(root, second_gold):
    schema = make_concert_schema()
    examples = [EXAMPLES[0], ("concert", second_gold)]
    write_dataset(root, examples, {"concert": schema},
                  {"concert": make_concert_db(schema)})


def _missing_database_dataset(root):
    # the second question's db_id has a schema but no .sqlite file
    schema = make_concert_schema()
    write_dataset(root, [EXAMPLES[0], ("nofile", EXAMPLES[1][1])],
                  {"concert": schema, "nofile": schema},
                  {"concert": make_concert_db(schema)})


@pytest.mark.parametrize("how", sorted(DATABASE_SPOILS))
def test_database_for_names_a_database_file_it_cannot_load(tmp_path, how):
    data = tmp_path / "data"
    _missing_database_dataset(data)
    path = data / "database" / "concert.sqlite"
    spoil_database(path, how)
    dataset = load_dataset(data / "examples.json", data / "tables.json", data / "database")
    with pytest.raises(sqlite3.DatabaseError, match=re.escape(str(path))):
        dataset.database_for(dataset.examples[0])


def test_missing_database_fails_only_its_question(tmp_path):
    data = tmp_path / "data"
    _missing_database_dataset(data)
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", data, out_dir)
    assert main(["-c", str(cfg), "search"]) == 1
    verdicts = {
        v["question_id"]: v
        for v in map(json.loads, (out_dir / "verdicts.jsonl").read_text().splitlines())
    }
    assert "error" not in verdicts["q0000"]
    assert verdicts["q0001"]["error"]


def test_missing_database_file_is_named_with_both_layouts(tmp_path):
    # sqlite3 said only "unable to open database file", naming no path
    data = tmp_path / "data"
    _missing_database_dataset(data)
    dataset = load_dataset(data / "examples.json", data / "tables.json", data / "database")
    tried = [str(data / "database" / "nofile.sqlite"),
             str(data / "database" / "nofile" / "nofile.sqlite")]
    with pytest.raises(FileNotFoundError) as exc:
        dataset.database_for(dataset.examples[1])
    assert all(path in str(exc.value) for path in tried)
    out_dir = tmp_path / "run"
    assert main(["-c", str(write_config(tmp_path / "c.yaml", data, out_dir)), "search"]) == 1
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").read_text().splitlines()]
    assert all(path in verdicts[1]["error"] for path in tried)


def test_missing_database_fails_only_its_question_in_evaluate(tmp_path, suites_dir):
    # suites_dir holds a suite for q0001, so the beam curve runs it too
    data = tmp_path / "data"
    _missing_database_dataset(data)
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", data, out_dir,
                       criterion="test-suite", suites_dir=str(suites_dir))
    assert main(["-c", str(cfg), "search"]) == 1
    assert main(["-c", str(cfg), "evaluate", "--beam-curve"]) == 1
    records = {r["question_id"]: r
               for r in json.loads((out_dir / "report.json").read_text())["records"]}
    assert set(records) == {"q0000", "q0001"}
    assert records["q0001"]["execution_match"] is False
    assert records["q0001"]["suite_match"] is False
    assert (out_dir / "report.txt").exists()
    with open(out_dir / "beam_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    # the errored verdict is a miss in every row, so the last row is the TS
    # of the report, which scores it as a miss too
    assert len(rows) == 4
    report = json.loads((out_dir / "report.json").read_text())
    assert round(float(rows[-1]["ts_accuracy"]), 4) == report["test_suite_accuracy"] == 0.5

    sweep_dir = tmp_path / "sweep"
    cfg = write_config(tmp_path / "s.yaml", data, sweep_dir)
    assert main(["-c", str(cfg), "sweep", "--param", "search.temperature",
                 "--values", "1.0"]) == 1
    assert (sweep_dir / "sweep.csv").exists()


def test_beam_curve_reports_a_suite_that_fails_to_load_once(tmp_path, suites_dir, capsys):
    # the greedy check of the beam curve ran on the suite that had failed to
    # load, and reported the question a second time
    data = tmp_path / "data"
    schema = make_concert_schema()
    write_dataset(data, EXAMPLES[:2], {"concert": schema}, {"concert": make_concert_db(schema)})
    suites = tmp_path / "suites"
    for qid in ("q0000", "q0001"):
        shutil.copytree(suites_dir / qid, suites / qid)
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", data, out_dir,
                       criterion="test-suite", suites_dir=str(suites))
    assert main(["-c", str(cfg), "search"]) == 0
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").read_text().splitlines()]
    assert any(v["accepted_stage"] is not None for v in verdicts)  # a cap it does not fit
    for qid in ("q0000", "q0001"):
        (suites / qid / "manifest.json").unlink()
    capsys.readouterr()
    assert main(["-c", str(cfg), "evaluate", "--beam-curve"]) == 1
    err = capsys.readouterr().err
    for qid in ("q0000", "q0001"):
        assert err.count(f" {qid} failed") == 1, err
    with open(out_dir / "beam_curve.csv") as fh:
        assert [float(row["ts_accuracy"]) for row in csv.DictReader(fh)] == [0.0] * 4


@pytest.mark.parametrize("case", ["search.method=unique", "criterion=one-test",
                                  "no-accepted_stage", "accepted_stage-past-schedule"])
def test_beam_curve_rejected_for_non_cab_verdicts(tmp_path, dataset_dir, suites_dir, case):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir,
                       criterion="test-suite", suites_dir=str(suites_dir))
    settings = ["--set", case] if "=" in case else []
    assert main(["-c", str(cfg), *settings, "search"]) == 0
    verdicts = out_dir / "verdicts.jsonl"
    if "accepted_stage" in case:
        # as written before the field existed, or by a search with more stages
        records = [json.loads(line) for line in verdicts.read_text().splitlines()]
        for rec in records:
            del rec["accepted_stage"]
            if case == "accepted_stage-past-schedule":
                rec["accepted_stage"] = 2
        verdicts.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), *settings, "evaluate", "--beam-curve"])
    assert exc.value.code not in (0, None)
    if "accepted_stage" in case:
        assert str(verdicts) in exc.value.code and "re-run search" in exc.value.code
    assert not (out_dir / "report.json").exists()


def test_sweep_exits_nonzero_on_failed_run(tmp_path):
    data = tmp_path / "data"
    _two_question_dataset(data, "select nope from singer")
    out_dir = tmp_path / "sweep"
    cfg = write_config(tmp_path / "c.yaml", data, out_dir, criterion="one-test")
    assert main(["-c", str(cfg), "sweep", "--param", "search.temperature",
                 "--values", "1.0"]) == 1
    assert (out_dir / "sweep.csv").exists()


def test_search_errors_are_reported_and_retried(tmp_path):
    data = tmp_path / "data"
    _two_question_dataset(data, "select nope from singer")
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", data, out_dir, criterion="one-test")
    assert main(["-c", str(cfg), "search"]) == 1
    verdicts = {
        v["question_id"]: v
        for v in map(json.loads, (out_dir / "verdicts.jsonl").read_text().splitlines())
    }
    assert "error" not in verdicts["q0000"]
    assert verdicts["q0001"]["error"]
    assert verdicts["q0001"]["fallback_used"] is False

    # once the gold query is mended, resume retries only the errored question
    _two_question_dataset(data, "select name from singer where age < 30")
    assert main(["-c", str(cfg), "search"]) == 0
    resumed = {
        v["question_id"]: v
        for v in map(json.loads, (out_dir / "verdicts.jsonl").read_text().splitlines())
    }
    assert resumed["q0000"] == verdicts["q0000"]
    assert "error" not in resumed["q0001"]


def test_build_suite_exits_nonzero_on_failed_question(tmp_path):
    data = tmp_path / "data"
    _two_question_dataset(data, "select nope from singer")
    suites_dir = tmp_path / "suites"
    cfg = write_config(tmp_path / "c.yaml", data, suites_dir)
    assert main(["-c", str(cfg), "build-suite"]) == 1
    assert (suites_dir / "q0000" / "manifest.json").exists()
    assert not (suites_dir / "q0001").exists()


def test_nested_spider_database_layout(tmp_path):
    schema = make_concert_schema()
    _, _, db_dir = write_dataset(tmp_path, EXAMPLES[:1], {"concert": schema},
                                 {"concert": make_concert_db(schema)})
    (db_dir / "concert").mkdir()
    (db_dir / "concert.sqlite").rename(db_dir / "concert" / "concert.sqlite")
    dataset = load_dataset(tmp_path / "examples.json", tmp_path / "tables.json", db_dir)
    db = dataset.database_for(dataset.examples[0])
    assert db.tables["singer"] == make_concert_db(schema).tables["singer"]


def test_database_file_is_read_once_per_db_id(tmp_path, monkeypatch):
    data = tmp_path / "data"
    _missing_database_dataset(data)
    dataset = load_dataset(data / "examples.json", data / "tables.json", data / "database")
    reads = []
    read = DatabaseInstance.from_sqlite
    monkeypatch.setattr(DatabaseInstance, "from_sqlite",
                        lambda path, schema: reads.append(path) or read(path, schema))
    first, missing = dataset.examples
    again = dataclasses.replace(first, question_id="again")
    db = dataset.database_for(first)
    assert dataset.database_for(again) is db
    assert reads == [data / "database" / "concert.sqlite"]
    assert "tables" not in vars(db)  # rows are read on first use
    assert db.tables == make_concert_db(make_concert_schema()).tables
    # a missing file fails every question on its db_id, naming both layouts
    for _ in range(2):
        with pytest.raises(FileNotFoundError, match="nofile.sqlite nor"):
            dataset.database_for(missing)
