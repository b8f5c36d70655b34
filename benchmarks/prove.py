"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/prove.py --seeds 10 --sets 2 [--workloads search-cab-suite ...]

Each set runs every workload on seeds 0 to `--seeds` - 1 with `--trace 0`.
For every set, workload and end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them. With two or more sets it
also prints how far each later set's median moved from the first set's, in
the metric's worse direction, and the median over seeds of how much one
seed's value changed from the first set: run-to-run noise without the
variation between inputs. A run that fails or reports `correct: false`
stops it. Results also go to `.bench_run/prove.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(spec: dict, workload: str, seeds: int) -> dict | None:
    runs = []
    for seed in range(seeds):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if out.returncode != 0 or result is None or not result["correct"]:
            print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return None
        runs.append(result)
        print(workload, seed, result["attempted"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0}
    return {"runs": runs, "summary": summary}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report: dict = {}
    for s in range(args.sets):
        for workload in args.workloads:
            result = run_set(spec, workload, args.seeds)
            if result is None:
                return 1
            report.setdefault(workload, []).append(result)
            for name, m in result["summary"].items():
                bound = metrics[name]["bound"]
                line = (f"  set {s} {name:<18} median {m['median']:<12.5g} "
                        f"spread {m['spread']:.3f} bound {bound}")
                if m["spread"] > bound:
                    line += "  OVER" + (" (spread not gated)" if name == "setup_s" else "")
                if s:
                    first = report[workload][0]
                    worse = (m["median"] / first["summary"][name]["median"] - 1) * (
                        1 if metrics[name]["better"] == "lower" else -1)
                    line += f"  worse than set 0 by {worse:+.3f}" + (
                        "  OVER" if worse > bound else "")
                    # run-to-run noise alone: the same seed's change from set 0
                    changes = [abs(r["metrics"][name]["value"] / r0["metrics"][name]["value"] - 1)
                               for r, r0 in zip(result["runs"], first["runs"])]
                    line += f"  same-seed change median {statistics.median(changes):.3f}"
                print(line, flush=True)
    out_path = ROOT / ".bench_run" / "prove.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
