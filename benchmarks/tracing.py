"""Span tracing from outside the library.

`Tracer.install` replaces the public functions and methods on the
benchmark's call paths with wrappers that record one span per call: name,
start, end, parent span and question id. Spans stay in memory until the run
writes them out. Temperature scaling is left unwrapped: it is a cheap step of
the decoding loop, and wrapping it would double the spans of a search run. A span's self time is its duration minus the time its
child spans cover; per-layer metrics sum self times, so no time is counted
in two layers.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from guidedsql import criteria, datasets, executor, metrics, parser, scorer, search, testsuite


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _outcome(args, kwargs, result):
    """Outcome class, plus the DB path when the caller passed a path; a
    DatabaseInstance's path comes from the execute span's materialize child."""
    db = _arg(args, kwargs, 2, "db")
    path = None if isinstance(db, executor.DatabaseInstance) else str(db)
    if result.ok:
        return ("ok", path)
    if result.status == "timeout":
        return ("timeout", path)
    return ("crash" if result.message == "query worker crashed" else "error", path)


# (owner, attribute, span name, what to keep from (args, kwargs, result))
TARGETS = [
    (scorer.NgramScorer, "next_distribution", "scorer.next_distribution",
     lambda a, k, r: _arg(a, k, 1, "prefix")),
    (search, "beam_search", "search.beam_search", lambda a, k, r: len(r)),
    (search, "cab_search", "search.cab_search", lambda a, k, r: len(r[1])),
    (search, "greedy_decode", "search.greedy_decode", None),
    (search.SamplerState, "draw", "search.draw", lambda a, k, r: r is not None),
    (search, "unique_randomizer_sample", "search.unique_randomizer_sample",
     lambda a, k, r: len(r[1])),
    (criteria, "check", "criteria.check", lambda a, k, r: bool(r)),
    (criteria, "guided_search", "criteria.guided_search", None),
    (executor.QueryExecutor, "execute", "executor.execute", _outcome),
    (executor.DatabaseInstance, "materialize", "executor.materialize", lambda a, k, r: str(r)),
    (testsuite, "generate_neighbors", "testsuite.generate_neighbors", None),
    (testsuite, "fuzz_database", "testsuite.fuzz_database", None),
    (testsuite, "build_suite", "testsuite.build_suite", lambda a, k, r: len(r.databases)),
    (testsuite, "suite_stats", "testsuite.suite_stats", None),
    (testsuite, "save_suite", "testsuite.save_suite", None),
    (testsuite, "load_suite", "testsuite.load_suite", None),
    (parser, "parse", "parser.parse", None),
    (metrics, "exact_set_match_text", "metrics.exact_set_match_text", None),
    (metrics, "execution_accuracy", "metrics.execution_accuracy", None),
    (metrics, "test_suite_accuracy", "metrics.test_suite_accuracy", None),
    (datasets, "load_dataset", "datasets.load_dataset", None),
    (datasets.Dataset, "database_for", "datasets.database_for", None),
]

# span fields
NAME, QID, PARENT, START, END, CHILD, INFO = range(7)
# prefix of the question ids of spans recorded while set-up builds suites
SETUP_QUESTION = "set-up:"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.question: str | None = None
        # question id -> identity of that question's scorer distribution
        self.scorer_keys: dict[str, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, keep):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, self.question, stack[-1] if stack else None, clock(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
                if span[PARENT] is not None:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if keep is not None:
                span[INFO] = keep(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every target for its wrapper, in its defining module and in
        every guidedsql module that imported it by name."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "guidedsql"]
        for owner, attr, name, keep in TARGETS:
            original = getattr(owner, attr)
            traced = self._wrap(original, name, keep)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[PARENT], s[NAME], s[QID],
                                     round(s[START], 7), round(s[END], 7)]) + "\n")

    def _executed_dbs(self) -> list[tuple[str | None, str]]:
        """(question id, DB path) for every execute span."""
        materialized = {s[PARENT]: s[INFO] for s in self.spans
                        if s[NAME] == "executor.materialize"}
        return [(s[QID], s[INFO][1] or materialized.get(i))
                for i, s in enumerate(self.spans)
                if s[NAME] == "executor.execute" and s[INFO] is not None]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times over every recorded span."""
        count: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        infos: defaultdict = defaultdict(list)
        for s in self.spans:
            count[s[NAME]] += 1
            self_s[s[NAME]] += s[END] - s[START] - s[CHILD]
            if s[INFO] is not None:
                infos[s[NAME]].append(s[INFO])

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        outcomes = Counter(status for status, _ in infos["executor.execute"])
        checks = count["criteria.check"]
        passes = sum(infos["criteria.check"])
        offered = sum(infos["search.cab_search"]) + sum(infos["search.unique_randomizer_sample"])
        fuzz_calls = count["testsuite.fuzz_database"]
        kept = sum(infos["testsuite.build_suite"])
        return {
            "scorer.calls": (count["scorer.next_distribution"], "count"),
            "scorer.busy_s": (self_s["scorer.next_distribution"], "s"),
            "search.beam_calls": (count["search.beam_search"], "count"),
            "search.draws": (count["search.draw"], "count"),
            "search.hypotheses": (sum(infos["search.beam_search"]) + sum(infos["search.draw"]),
                                  "count"),
            "search.self_s": (layer_self("search."), "s"),
            "criteria.checks": (checks, "count"),
            "criteria.passes": (passes, "count"),
            "criteria.pass_ratio": (passes / checks if checks else 0.0, "ratio"),
            "criteria.memo_hits": (offered - checks, "count"),
            "criteria.self_s": (layer_self("criteria."), "s"),
            "executor.calls": (count["executor.execute"], "count"),
            "executor.roundtrip_s": (self_s["executor.execute"], "s"),
            "executor.ok": (outcomes["ok"], "count"),
            "executor.errors": (outcomes["error"], "count"),
            "executor.timeouts": (outcomes["timeout"], "count"),
            "executor.crashes": (outcomes["crash"], "count"),
            "executor.distinct_dbs": (len({db for _, db in self._executed_dbs()}), "count"),
            "executor.materialize_calls": (count["executor.materialize"], "count"),
            "executor.materialize_s": (self_s["executor.materialize"], "s"),
            "testsuite.neighbors_s": (self_s["testsuite.generate_neighbors"], "s"),
            "testsuite.fuzz_calls": (fuzz_calls, "count"),
            "testsuite.fuzz_s": (self_s["testsuite.fuzz_database"], "s"),
            "testsuite.dbs_kept": (kept, "count"),
            "testsuite.keep_ratio": (kept / fuzz_calls if fuzz_calls else 0.0, "ratio"),
            "testsuite.build_self_s": (self_s["testsuite.build_suite"], "s"),
            "testsuite.stats_s": (self_s["testsuite.suite_stats"], "s"),
            "testsuite.save_s": (self_s["testsuite.save_suite"], "s"),
            "testsuite.load_s": (self_s["testsuite.load_suite"], "s"),
            "parser.calls": (count["parser.parse"], "count"),
            "parser.busy_s": (self_s["parser.parse"], "s"),
            "metrics.eval_s": (layer_self("metrics."), "s"),
            "datasets.load_s": (layer_self("datasets."), "s"),
        }

    def traffic(self) -> dict:
        """Traffic properties: distinct DB files per measured and per set-up
        question, and the share of scorer calls whose (scorer distribution,
        prefix) another question asked first."""
        per_question = defaultdict(set)
        per_setup_question = defaultdict(set)
        for qid, db in self._executed_dbs():
            if qid is not None and qid.startswith(SETUP_QUESTION):
                per_setup_question[qid].add(db)
            else:
                per_question[qid].add(db)
        first_asker: dict = {}
        shared = total = 0
        for s in self.spans:
            if s[NAME] != "scorer.next_distribution":
                continue
            total += 1
            key = (self.scorer_keys.get(s[QID], s[QID]), s[INFO])
            shared += first_asker.setdefault(key, s[QID]) != s[QID]
        def mean_size(sets) -> float:
            return sum(map(len, sets.values())) / len(sets) if sets else 0.0

        return {
            "distinct_dbs_per_question": mean_size(per_question),
            "distinct_dbs_per_setup_question": mean_size(per_setup_question),
            "decode_shared_share": shared / total if total else 0.0,
        }
