"""The benchmark under `benchmarks/` reaches into the library by name: its
tracer wraps functions and methods, and its workloads import helpers and
build an executor. These checks fail when a library change removes or
renames one of those names, instead of leaving `benchmarks/run.py` broken.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402
import workloads  # noqa: E402,F401  (imports guidedsql.cli._heldout_neighbors)
from guidedsql.executor import QueryExecutor  # noqa: E402


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
