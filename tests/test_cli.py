import csv
import json

import pytest
import yaml

from guidedsql.cli import RunConfig, main
from guidedsql.datasets import load_dataset

from conftest import make_concert_db, make_concert_schema, write_dataset

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


def test_build_suite_and_suite_stats(tmp_path, dataset_dir, capsys):
    suites_dir = tmp_path / "suites"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, suites_dir)
    assert main(["-c", str(cfg), "build-suite"]) == 0
    stats = json.loads((suites_dir / "stats.json").read_text())
    assert set(stats) == {"NoEmpty", "Cover", "Tests", "Time", "Size"}
    built = sorted(p.name for p in suites_dir.iterdir() if p.is_dir())
    assert built == [f"q{i:04d}" for i in range(len(EXAMPLES))]

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


def test_evaluate_beam_curve(tmp_path, dataset_dir, suites_dir):
    out_dir = tmp_path / "run"
    cfg = write_config(
        tmp_path / "c.yaml", dataset_dir, out_dir,
        criterion="test-suite", suites_dir=str(suites_dir),
    )
    assert main(["-c", str(cfg), "search"]) == 0
    assert main(["-c", str(cfg), "evaluate", "--beam-curve"]) == 0
    with open(out_dir / "beam_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["max_beam"]) for r in rows] == [1, 10, 100, 800]
    accuracies = [float(r["ts_accuracy"]) for r in rows]
    assert accuracies == sorted(accuracies) and accuracies[-1] > 0


def test_unknown_search_method_rejected_before_search(tmp_path, dataset_dir):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.yaml", dataset_dir, out_dir)
    with pytest.raises(SystemExit) as exc:
        main(["-c", str(cfg), "--set", "search.method=unique-random", "search"])
    assert exc.value.code not in (0, None)
    assert not (out_dir / "verdicts.jsonl").exists()


def _two_question_dataset(root, second_gold):
    schema = make_concert_schema()
    examples = [EXAMPLES[0], ("concert", second_gold)]
    write_dataset(root, examples, {"concert": schema},
                  {"concert": make_concert_db(schema)})


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
