"""guidedsql benchmark.

    python3 benchmarks/run.py --workload search-cab-suite --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Prints each metric with its unit, then, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a separate traced set-up and
round with `--trace 1`. Scratch files live under `.bench_run/`; each run gets its own
TMPDIR there, so `executor.tmp_disk_mb` sees only that run's temporary
files. benchmarks/BASELINE.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_ROOT = ROOT / ".bench_run"
# Set-up runs at least twice and for at least a second, so that a set-up of
# milliseconds is still a steady median; a set-up that builds suites takes
# seconds, and a third one would cost a fifth of the benchmark's time budget.
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 1.0
# The tail percentile, p89: the highest one with ten samples above it in the
# 90 questions of the three rounds every run measures at least; it stays p89
# when a run measures more.
TAIL_FRACTION = 8 / 9


def _tail(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[math.ceil(len(ordered) * TAIL_FRACTION) - 1]


def end_to_end(setup_times, measured, round_size: int) -> dict:
    lat = measured.latencies
    # A round whose spinning questions ran long moves a median of rounds less
    # than it moves the run's total.
    rounds = [lat[i:i + round_size] for i in range(0, len(lat), round_size)]
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "questions_per_s": (statistics.median([len(r) / sum(r) for r in rounds]), "1/s"),
        "question_p50_ms": (1000 * statistics.median(lat), "ms"),
        "question_tail_ms": (1000 * _tail(lat), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def outputs(built, answers, measured) -> dict:
    """What the first round produced: suite quality where suites were built,
    search quality where questions were searched (zero elsewhere), and the
    temporary files left behind."""
    n_built, n_answers = max(len(built), 1), max(len(answers), 1)
    scored = [a.ts for a in answers if a.ts is not None]
    return {
        "testsuite.cover_pct": (
            100 * sum(b.covered for b in built) / max(sum(b.heldout for b in built), 1), "%"),
        "testsuite.noempty_pct": (100 * sum(b.nonempty for b in built) / n_built, "%"),
        "testsuite.avg_dbs": (sum(len(b.suite.databases) for b in built) / n_built, "count"),
        "criteria.question_pass_rate": (
            sum(a.verdict.criterion_passed for a in answers) / n_answers, "share"),
        "metrics.em_accuracy": (sum(a.em for a in answers) / n_answers, "share"),
        "metrics.ex_accuracy": (sum(a.ex for a in answers) / n_answers, "share"),
        "metrics.ts_accuracy": (sum(scored) / max(len(scored), 1), "share"),
        "executor.tmp_disk_mb": (measured.tmp_bytes / 1e6, "MB"),
    }


def traffic(prep, answers, tracer) -> dict:
    inputs = prep.inputs
    props = {
        "corpus": len(inputs.examples),
        "vocab": len(inputs.scorer(inputs.examples[0]).vocab),
    }
    if answers:
        ranks = sorted(a.verdict.hypotheses_tested for a in answers if a.verdict.criterion_passed)
        props["accept_rank_min_median_max"] = [ranks[0], statistics.median(ranks), ranks[-1]]
        props["fallbacks"] = sum(a.verdict.fallback_used for a in answers)
    if tracer is not None:
        props.update(tracer.traffic())
    return props


def run(args, run_dir: Path, tmp_dir: Path) -> dict:
    import workloads  # imports guidedsql, after TMPDIR is set

    data_dir = run_dir / "data"
    inputs = workloads.write_inputs(args.seed, data_dir)
    setup_times: list[float] = []
    prep = None
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        if prep is not None:  # keep only the last set-up
            prep.executor.close()
            shutil.rmtree(prep.suites_dir.parent, ignore_errors=True)
        root = run_dir / f"setup{len(setup_times)}"
        t0 = time.perf_counter()
        prep = workloads.setup(args.workload, inputs, data_dir, root)
        setup_times.append(time.perf_counter() - t0)
    try:
        result = measure_all(args, prep, setup_times, tmp_dir)
    finally:
        prep.executor.close()
    result["workers_left"] = len(multiprocessing.active_children())
    return result


def measure_all(args, prep, setup_times, tmp_dir: Path) -> dict:
    import verify
    import workloads

    setup_problems = [p for b in prep.built for p in verify.check_suite(b.suite)]
    for p in setup_problems:
        print(f"set-up: {p}", file=sys.stderr)

    measured = workloads.measure(args.workload, prep, args.seconds, tmp_dir)
    first = [r for r in measured.first_round if r is not None]
    result = {
        "measured": len(measured.latencies),
        "attempted": len(measured.latencies),
        "failed": measured.failed + len(setup_problems),
        "outputs": outputs(prep.built, first, measured),
    }
    tracer = None
    if args.trace:
        from tracing import SETUP_QUESTION, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            if prep.built:  # suite building, as set-up does it
                for i in range(workloads.ROUND):
                    tracer.question = f"{SETUP_QUESTION}{i}"
                    built = workloads.build_one(prep, i, prep.executor)
                    result["failed"] += bool(verify.check_suite(built.suite))
                tracer.question = None
            traced = workloads.measure(args.workload, prep, 0, tmp_dir, tracer, one_round=True)
        finally:
            tracer.uninstall()
        tracer.write(RUN_ROOT / f"trace-{args.workload}.jsonl")
        n = workloads.ROUND
        qps_ratio = sum(measured.latencies[:n]) / sum(traced.latencies)
        result["metrics"] = {**tracer.layer_metrics(), **result["outputs"],
                             "trace.qps_ratio": (qps_ratio, "ratio")}
        result["attempted"] += len(traced.latencies)
        result["failed"] += traced.failed
    else:
        result["metrics"] = end_to_end(setup_times, measured, workloads.ROUND)
    result["traffic"] = traffic(prep, first, tracer)
    result["setup_repeats"] = len(setup_times)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["search-cab-suite", "search-unique-onetest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "guidedsql" / "__init__.py").is_file():
        print(f"benchmark: no guidedsql sources under {src}", file=sys.stderr)
        return 2
    run_dir = RUN_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tmp_dir = run_dir / "tmp"
    tmp_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)
    sys.path.insert(0, str(src))
    try:
        result = run(args, run_dir, tmp_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import guidedsql

    if Path(guidedsql.__file__).resolve().parent != src / "guidedsql":
        print(f"benchmark: imported guidedsql from {guidedsql.__file__}", file=sys.stderr)
        return 2
    if result["workers_left"]:
        print(f"{result['workers_left']} executor worker(s) alive after the run", file=sys.stderr)
    metrics = result["metrics"]
    for name, (value, unit) in {**metrics, **result["outputs"]}.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(f"questions {result['measured']}, tail percentile p89, "
          f"set-up repeated {result['setup_repeats']} times")
    print("traffic " + json.dumps(result["traffic"]))
    correct = result["failed"] == 0 and result["workers_left"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
