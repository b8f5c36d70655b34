"""The identity gate: SHA-256 digests of the CLI's outputs on the fixture
corpus, and of the held-out neighbor texts that `build-suite` and
`suite-stats` score, compared with `tests/golden/digests.json`.

`cli.main` runs in-process, in a temporary directory, with every config
path relative to it, since a path enters the manifests' `config` and
`config_hash`. The wall-clock fields (`Time`, `build_time`) are left out,
and a saved SQLite file is digested through its SQL dump, which does not
depend on the SQLite library's file layout. A change that keeps every
output must leave the digests as they are; a change of behaviour rewrites
them with `python tests/golden/rewrite.py` and reports each one that moved.
"""

import contextlib
import hashlib
import io
import json
import re
import sqlite3
from pathlib import Path
from unittest import mock

import yaml

from guidedsql import cli
from guidedsql.cli import main

from conftest import (
    FIXTURE_QUERIES,
    make_cars_db,
    make_cars_schema,
    make_concert_db,
    make_concert_schema,
    write_dataset,
)

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
# wall-clock fields, left out of the JSON file that holds them
_WALL_CLOCK = {"manifest.json": "build_time", "stats.json": "Time"}
# the Time column of a rendered stats table: "  0.01s"
_RENDERED_TIME = re.compile(r" +\d+\.\d+s ")


def _file_digest(path: Path) -> str:
    if path.suffix == ".sqlite":
        with contextlib.closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
            data = "\n".join(conn.iterdump()).encode()
    elif path.name in _WALL_CLOCK:
        record = json.loads(path.read_text())
        record.pop(_WALL_CLOCK[path.name], None)
        data = json.dumps(record, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def _run(*argv: str) -> str:
    """What `main(argv)` prints; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["-c", "config.yaml", *argv])
    assert status == 0, argv
    return out.getvalue()


def cli_output_digests(root: Path) -> dict[str, str]:
    """Run every gated configuration in `root`, the working directory, and
    digest what each writes (each run's wall times, `timings.jsonl`, aside)."""
    concert, cars = make_concert_schema(), make_cars_schema()
    write_dataset(root / "data", FIXTURE_QUERIES, {"concert": concert, "cars": cars},
                  {"concert": make_concert_db(concert), "cars": make_cars_db(cars)})
    # fewer neighbors than the defaults, so that held-out neighbors are left
    Path("config.yaml").write_text(yaml.safe_dump({
        "dataset": {"examples": "data/examples.json", "tables": "data/tables.json",
                    "databases": "data/database"},
        "suite": {"neighbors": 12, "heldout_neighbors": 4},
        "suites_dir": "suites",
    }))
    printed = {}
    # the held-out texts each run scores, which Cover alone may not show
    held_out = []
    suite_stats = cli.suite_stats

    def spy(suites, heldout_sets, *args):
        held_out.append({s.query_id: h.neighbors for s, h in zip(suites, heldout_sets)})
        return suite_stats(suites, heldout_sets, *args)

    with mock.patch.object(cli, "suite_stats", spy):
        _run("--set", "output_dir=suites", "build-suite")
        printed["suite-stats.txt"] = _RENDERED_TIME.sub(" ", _run("suite-stats"))
    for name, texts in zip(("build-suite", "suite-stats"), held_out, strict=True):
        printed[f"{name}.heldout.json"] = json.dumps(texts, sort_keys=True)
    searches = {
        "test-suite": ["--set", "criterion=test-suite"],
        "one-test": ["--set", "criterion=one-test"],
        "execution": [],
        "unique": ["--set", "criterion=one-test", "--set", "search.method=unique",
                   "--set", "search.schedule={beam_sizes: [50], widths: [1]}",
                   "--set", "search.temperature=0.5"],
    }
    for name, extra in searches.items():
        where = ["--set", f"output_dir={name}", *extra]
        _run(*where, "search")
        _run(*where, "evaluate", *(["--beam-curve"] if name == "test-suite" else []))
    _run(*searches["unique"], "--set", "output_dir=sweep", "sweep",
         "--param", "search.seed", "--values", "1", "2")

    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in printed.items()}
    for path in sorted(root.rglob("*")):
        name = path.relative_to(root).as_posix()
        if path.is_file() and path.name != "timings.jsonl" and name != "config.yaml" \
                and not name.startswith("data/"):
            digests[name] = _file_digest(path)
    return digests


def test_cli_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = cli_output_digests(tmp_path)
    want = json.loads(DIGESTS.read_text())
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not moved, f"{len(moved)} outputs moved: {moved}"
