"""Per-query semantic test suites built by database fuzzing.

For a gold query: generate near-miss neighbor queries by single-edit
perturbation, sample small databases biased toward the query's constants,
first secure a database with non-empty gold output, then greedily keep
databases that distinguish gold from not-yet-distinguished neighbors.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .executor import (
    DatabaseInstance,
    Denotation,
    QueryExecutor,
    is_empty_output,
    matches_gold,
)
from .parser import parse
from .query_ast import (
    extract_constants,
    BoolExpr,
    ColumnExpr,
    Comparison,
    Literal,
    OrderItem,
    QueryAst,
    SelectQuery,
    SetQuery,
    Star,
    print_query,
)
from .schema import ColumnId, Schema

_UNIQUE_NAME_MARKERS = ("name", "id", "phone")
_COMPARISON_SWAPS = ("=", "!=", "<", "<=", ">", ">=")


class NoNeighborsPossible(ValueError):
    """The gold query admits no single-edit neighbor (degenerate query)."""


@dataclass
class NeighborSet:
    gold: QueryAst
    neighbors: list[QueryAst]
    seed: int

    def texts(self) -> list[str]:
        return [print_query(n) for n in self.neighbors]


# ---------------------------------------------------------------------------
# Neighbor generation
# ---------------------------------------------------------------------------


def _select_nodes(ast: QueryAst) -> list[SelectQuery]:
    if isinstance(ast, SetQuery):
        return _select_nodes(ast.left) + _select_nodes(ast.right)
    nodes = [ast]
    for pred in (ast.where, ast.having):
        for cmp_ in _comparisons(pred):
            if isinstance(cmp_.right, (SelectQuery, SetQuery)):
                nodes.extend(_select_nodes(cmp_.right))
    return nodes


def _comparisons(pred) -> list[Comparison]:
    if pred is None:
        return []
    if isinstance(pred, Comparison):
        return [pred]
    out = []
    for arg in pred.args:
        out.extend(_comparisons(arg))
    return out


def _bool_exprs(pred) -> list[BoolExpr]:
    if pred is None or isinstance(pred, Comparison):
        return []
    out = [pred]
    for arg in pred.args:
        out.extend(_bool_exprs(arg))
    return out


def _all_comparisons(ast: QueryAst) -> list[Comparison]:
    out = []
    for node in _select_nodes(ast):
        out.extend(_comparisons(node.where))
        out.extend(_comparisons(node.having))
    return out


def _all_bool_exprs(ast: QueryAst) -> list[BoolExpr]:
    out = []
    for node in _select_nodes(ast):
        out.extend(_bool_exprs(node.where))
        out.extend(_bool_exprs(node.having))
    return out


def _column_exprs(ast: QueryAst) -> list[ColumnExpr]:
    out = []
    for node in _select_nodes(ast):
        out.extend(node.select)
        out.extend(c.left for c in _comparisons(node.where))
        out.extend(c.left for c in _comparisons(node.having))
        out.extend(o.expr for o in node.order_by)
    return out


def _is_unique_marker(schema: Schema, ref: ColumnId) -> bool:
    return schema.is_primary_key(ref) or any(
        m in ref.column.lower() for m in _UNIQUE_NAME_MARKERS
    )


def _edit_variants(gold: QueryAst, schema: Schema) -> list[QueryAst]:
    """All single-edit perturbations from the fixed nine-edit catalog."""
    variants: list[QueryAst] = []

    def fork(mutate) -> None:
        clone = copy.deepcopy(gold)
        if mutate(clone) is not False:
            variants.append(clone)

    # 1. comparison operator swap
    for i, cmp_ in enumerate(_all_comparisons(gold)):
        if cmp_.op not in _COMPARISON_SWAPS:
            continue
        for new_op in _COMPARISON_SWAPS:
            if new_op == cmp_.op:
                continue
            def swap(clone, i=i, new_op=new_op):
                _all_comparisons(clone)[i].op = new_op
            fork(swap)

    # 2. numeric literal nudged by one or doubled
    for i, cmp_ in enumerate(_all_comparisons(gold)):
        if not isinstance(cmp_.right, Literal):
            continue
        value = cmp_.right.value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        for new_value in (value + 1, value - 1, value * 2):
            if new_value == value:
                continue
            def nudge(clone, i=i, new_value=new_value):
                _all_comparisons(clone)[i].right.value = new_value
            fork(nudge)

    # 3. aggregator swap (legality preserved)
    for i, expr in enumerate(_column_exprs(gold)):
        if expr.agg == "none":
            continue
        legal = {"count", "min", "max"}
        if isinstance(expr.target, ColumnId) and schema.column_type(expr.target) in (
            "integer",
            "real",
        ):
            legal |= {"sum", "avg"}
        if isinstance(expr.target, Star):
            legal = {"count"}
        for new_agg in sorted(legal - {expr.agg}):
            def reagg(clone, i=i, new_agg=new_agg):
                _column_exprs(clone)[i].agg = new_agg
            fork(reagg)

    # 4. DISTINCT toggles (skipped where uniqueness makes them no-ops; the
    # fuzzer keys uniqueness off the same marker heuristic, so toggles on
    # marker columns would be undetectable by construction)
    for qi, node in enumerate(_select_nodes(gold)):
        targets = [e.target for e in node.select]
        provably_noop = len(targets) == 1 and all(
            isinstance(t, ColumnId) and _is_unique_marker(schema, t) for t in targets
        )
        if not provably_noop and all(e.agg == "none" for e in node.select):
            def toggle(clone, qi=qi):
                sel = _select_nodes(clone)[qi]
                sel.select_distinct = not sel.select_distinct
            fork(toggle)
    for i, expr in enumerate(_column_exprs(gold)):
        if expr.agg == "count" and isinstance(expr.target, ColumnId):
            if not schema.is_primary_key(expr.target):
                def toggle_agg(clone, i=i):
                    e = _column_exprs(clone)[i]
                    e.distinct = not e.distinct
                fork(toggle_agg)

    # 5. order direction flip
    order_items: list[OrderItem] = []
    for node in _select_nodes(gold):
        order_items.extend(node.order_by)
    for i in range(len(order_items)):
        def flip(clone, i=i):
            items = []
            for node in _select_nodes(clone):
                items.extend(node.order_by)
            items[i].desc = not items[i].desc
        fork(flip)

    # 6. LIMIT changed by one
    for qi, node in enumerate(_select_nodes(gold)):
        if node.limit is None:
            continue
        for new_limit in (node.limit + 1, node.limit - 1):
            if new_limit < 1:
                continue
            def relimit(clone, qi=qi, new_limit=new_limit):
                _select_nodes(clone)[qi].limit = new_limit
            fork(relimit)

    # 7. AND/OR swap
    for i, expr in enumerate(_all_bool_exprs(gold)):
        def reop(clone, i=i):
            node = _all_bool_exprs(clone)[i]
            node.op = "or" if node.op == "and" else "and"
        fork(reop)

    # 8. drop one predicate
    for qi, node in enumerate(_select_nodes(gold)):
        for clause in ("where", "having"):
            pred = getattr(node, clause)
            if pred is None:
                continue
            if isinstance(pred, Comparison):
                def drop_all(clone, qi=qi, clause=clause):
                    setattr(_select_nodes(clone)[qi], clause, None)
                fork(drop_all)
            elif isinstance(pred, BoolExpr):
                for ai in range(len(pred.args)):
                    def drop_one(clone, qi=qi, clause=clause, ai=ai):
                        target = getattr(_select_nodes(clone)[qi], clause)
                        del target.args[ai]
                        if len(target.args) == 1:
                            setattr(_select_nodes(clone)[qi], clause, target.args[0])
                    fork(drop_one)

    # 9. replace a column with a same-type sibling
    for i, expr in enumerate(_column_exprs(gold)):
        if not isinstance(expr.target, ColumnId):
            continue
        ref = expr.target
        siblings = schema.columns_of_type(ref.table, schema.column_type(ref))
        for sibling in siblings:
            if sibling == ref.column:
                continue
            def recolumn(clone, i=i, sibling=sibling, table=ref.table):
                _column_exprs(clone)[i].target = ColumnId(table, sibling)
            fork(recolumn)

    return variants


def generate_neighbors(
    gold: QueryAst, schema: Schema, count: int, seed: int = 0
) -> NeighborSet:
    """Up to `count` distinct single-edit neighbors, all parseable and
    resolvable, none structurally equal to the gold query."""
    if count < 1:
        raise ValueError("count must be >= 1")
    gold_text = print_query(gold)
    gold_canonical = parse(gold_text, schema)
    unique: dict[str, QueryAst] = {}
    for variant in _edit_variants(gold, schema):
        try:
            text = print_query(variant)
            reparsed = parse(text, schema)
        except Exception:
            continue
        if text == gold_text or text in unique or reparsed == gold_canonical:
            continue
        unique[text] = reparsed
    if not unique:
        raise NoNeighborsPossible(f"no neighbors for {gold_text!r}")
    texts = sorted(unique)
    rng = np.random.default_rng(seed)
    rng.shuffle(texts)
    return NeighborSet(gold, [unique[t] for t in texts[:count]], seed)


# ---------------------------------------------------------------------------
# Database fuzzing
# ---------------------------------------------------------------------------


def _topo_tables(schema: Schema) -> list[str]:
    """Tables ordered parents-first along foreign keys (cycles broken)."""
    deps: dict[str, set[str]] = {t.name: set() for t in schema.tables}
    for child, parent in schema.foreign_keys:
        if child.table != parent.table:
            deps[child.table].add(parent.table)
    ordered: list[str] = []
    while deps:
        free = sorted(t for t, d in deps.items() if not (d - set(ordered)))
        if not free:  # cycle: emit the rest in name order
            free = sorted(deps)
        for t in free:
            ordered.append(t)
            del deps[t]
    return ordered


def _random_word(rng: np.random.Generator) -> str:
    letters = "abcdefghijklmnop"
    n = int(rng.integers(3, 9))
    return "".join(letters[int(i)] for i in rng.integers(0, len(letters), n))


def _random_date(rng: np.random.Generator) -> str:
    return f"{int(rng.integers(1990, 2031)):04d}-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"


def fuzz_database(
    schema: Schema,
    constant_hints: list[tuple[ColumnId, int | float | str, str]],
    row_cap: int = 100,
    seed: int = 0,
    original: DatabaseInstance | None = None,
    hint_prob: float = 0.3,
) -> DatabaseInstance:
    """Sample a schema-conforming instance biased toward the hint constants.

    Hinted columns draw the literal and its unit offsets with elevated
    probability; unique-looking columns get duplicate-free values; foreign
    keys are satisfied from the generated parent keys.
    """
    if row_cap < 1:
        raise ValueError("row cap must be >= 1")
    rng = np.random.default_rng(seed)
    hints: dict[ColumnId, list] = {}
    for ref, value, _op in constant_hints:
        pool = hints.setdefault(ref, [])
        pool.append(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            pool.extend([value + 1, value - 1])

    tables: dict[str, list[tuple]] = {}
    generated: dict[ColumnId, list] = {}

    for table_name in _topo_tables(schema):
        table = schema.table(table_name)
        nrows = int(rng.integers(max(1, row_cap // 2), row_cap + 1))
        columns: list[list] = []
        for col_name, ctype in table.columns:
            ref = ColumnId(table_name, col_name)
            hint_pool = hints.get(ref, [])
            original_pool: list = []
            if original is not None:
                original_pool = [
                    v for v in original.column_values(ref) if v is not None
                ]
            unique = schema.is_primary_key(ref)
            if not unique and any(m in col_name.lower() for m in _UNIQUE_NAME_MARKERS):
                if original is not None:
                    values = original_pool
                    unique = len(values) > 0 and len(set(values)) == len(values)
                else:
                    unique = True
            parent = schema.parent_of(ref)
            parent_values = generated.get(parent, []) if parent is not None else None

            columns.append(
                _fuzz_column(
                    rng, ctype, nrows, hint_pool, original_pool, unique,
                    parent_values, hint_prob,
                )
            )
        nrows = min(len(c) for c in columns) if columns else 0
        rows = [tuple(col[i] for col in columns) for i in range(nrows)]
        tables[table_name] = rows
        for idx, (col_name, _) in enumerate(table.columns):
            generated[ColumnId(table_name, col_name)] = [r[idx] for r in rows]

    return DatabaseInstance(schema, tables, provenance="fuzzed", seed=seed)


def _fuzz_column(
    rng: np.random.Generator,
    ctype: str,
    nrows: int,
    hint_pool: list,
    original_pool: list,
    unique: bool,
    parent_values: list | None,
    hint_prob: float = 0.3,
) -> list:
    def base_value():
        if ctype == "integer":
            return int(rng.integers(-100, 1001))
        if ctype == "real":
            return float(np.float16(rng.uniform(-100.0, 1000.0)))
        if ctype == "boolean":
            if original_pool:
                return original_pool[int(rng.integers(len(original_pool)))]
            return int(rng.integers(0, 2))
        if ctype == "time":
            if original_pool and rng.random() < 0.5:
                return original_pool[int(rng.integers(len(original_pool)))]
            return _random_date(rng)
        # text
        if original_pool and rng.random() < 0.6:
            return original_pool[int(rng.integers(len(original_pool)))]
        return _random_word(rng)

    def typed(value):
        if ctype == "integer" and isinstance(value, (int, float)):
            return int(value)
        if ctype == "real" and isinstance(value, (int, float)):
            return float(np.float16(float(value)))
        if ctype == "text":
            return str(value)
        return value

    if parent_values is not None:
        pool = [v for v in parent_values if v is not None]
        if not pool:
            return [None] * nrows
        if unique:
            distinct = list(dict.fromkeys(pool))
            rng.shuffle(distinct)
            return distinct[: min(nrows, len(distinct))]
        return [pool[int(rng.integers(len(pool)))] for _ in range(nrows)]

    if unique:
        values: list = []
        seen: set = set()
        for hint in hint_pool:
            v = typed(hint)
            if v not in seen and len(values) < nrows:
                seen.add(v)
                values.append(v)
        guard = 0
        while len(values) < nrows and guard < nrows * 50:
            guard += 1
            v = typed(base_value())
            if ctype in ("integer", "real") and v in seen:
                v = typed(max((x for x in seen if isinstance(x, (int, float))), default=0) + 1 + len(values))
            if ctype == "text" and v in seen:
                v = f"{v}_{len(values)}"
            if v not in seen:
                seen.add(v)
                values.append(v)
        rng.shuffle(values)
        return values

    values = []
    for _ in range(nrows):
        if hint_pool and rng.random() < hint_prob:
            values.append(typed(hint_pool[int(rng.integers(len(hint_pool)))]))
        elif rng.random() < 0.03:
            values.append(None)
        else:
            values.append(typed(base_value()))
    return values


# ---------------------------------------------------------------------------
# Suite construction
# ---------------------------------------------------------------------------


@dataclass
class SuiteConfig:
    max_dbs: int = 5
    max_attempts: int = 500
    nonempty_attempts: int = 100
    row_cap: int = 100
    seed: int = 0
    hint_prob: float = 0.3
    time_limit: float | None = None

    def to_json(self) -> dict:
        return {
            "max_dbs": self.max_dbs,
            "max_attempts": self.max_attempts,
            "nonempty_attempts": self.nonempty_attempts,
            "row_cap": self.row_cap,
            "seed": self.seed,
            "hint_prob": self.hint_prob,
        }


@dataclass
class TestSuite:
    """Distinguishing databases for one gold query, with cached gold
    denotations per database."""

    query_id: str
    gold_query: str
    schema: Schema
    databases: list[DatabaseInstance] = field(default_factory=list)
    gold_denotations: list[Denotation] = field(default_factory=list)
    distinguished: dict[int, list[int]] = field(default_factory=dict)
    construction_neighbors: list[str] = field(default_factory=list)
    nonempty_found: bool = False
    build_time: float = 0.0
    config: SuiteConfig = field(default_factory=SuiteConfig)

    def size_bytes(self) -> int:
        return sum(db.size_bytes() for db in self.databases)


class NonEmptySearchFailed(RuntimeError):
    """No sampled database produced non-empty gold output (suite is still
    emitted; callers may catch and continue)."""


def build_suite(
    gold: QueryAst,
    neighbors: NeighborSet,
    schema: Schema,
    config: SuiteConfig,
    executor: QueryExecutor,
    original: DatabaseInstance | None = None,
    query_id: str = "q0",
) -> TestSuite:
    """Two-phase construction: find a non-empty-output database first, then
    greedily keep databases distinguishing new gold/neighbor pairs."""
    start = time.monotonic()
    gold_text = print_query(gold)
    hints = extract_constants(gold)
    neighbor_texts = neighbors.texts()
    suite = TestSuite(
        query_id=query_id,
        gold_query=gold_text,
        schema=schema,
        construction_neighbors=neighbor_texts,
        config=config,
    )
    remaining = set(range(len(neighbor_texts)))
    attempt = 0

    def sample_db() -> DatabaseInstance:
        nonlocal attempt
        attempt += 1
        return fuzz_database(
            schema,
            hints,
            row_cap=config.row_cap,
            seed=config.seed * 1_000_003 + attempt,
            original=original,
            hint_prob=config.hint_prob,
        )

    def try_db(db: DatabaseInstance, require_nonempty: bool) -> bool:
        """Keep db if it qualifies; returns True when kept."""
        gold_out = executor.execute(gold_text, db, config.time_limit)
        if not gold_out.ok:
            return False
        nonempty = not is_empty_output(gold_out.denotation, gold)
        if require_nonempty and not nonempty:
            return False
        tests = [(db, gold_out.denotation)]
        newly = [
            idx for idx in sorted(remaining)
            if not matches_gold(
                executor, neighbor_texts[idx], gold_text, tests, config.time_limit
            )
        ]
        if require_nonempty or newly:
            db_index = len(suite.databases)
            suite.databases.append(db)
            suite.gold_denotations.append(gold_out.denotation)
            suite.distinguished[db_index] = newly
            remaining.difference_update(newly)
            if nonempty:
                suite.nonempty_found = True
            return True
        return False

    # phase 1: secure non-empty gold output
    for _ in range(config.nonempty_attempts):
        if try_db(sample_db(), require_nonempty=True):
            break

    # phase 2: greedy distinguishing loop
    while (
        remaining
        and len(suite.databases) < config.max_dbs
        and attempt < config.max_attempts
    ):
        try_db(sample_db(), require_nonempty=False)

    suite.build_time = time.monotonic() - start
    return suite


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass
class SuiteStats:
    no_empty_pct: float
    cover_pct: float
    avg_tests: float
    avg_time: float
    total_size_bytes: int

    def to_json(self) -> dict:
        return {
            "NoEmpty": round(self.no_empty_pct, 1),
            "Cover": round(self.cover_pct, 1),
            "Tests": round(self.avg_tests, 2),
            "Time": round(self.avg_time, 3),
            "Size": self.total_size_bytes,
        }

    def render(self) -> str:
        header = f"{'NoEmpty':>8} {'Cover':>8} {'Tests':>8} {'Time':>8} {'Size':>10}"
        row = (
            f"{self.no_empty_pct:>7.1f}% {self.cover_pct:>7.1f}% "
            f"{self.avg_tests:>8.2f} {self.avg_time:>7.2f}s {self.total_size_bytes:>10d}"
        )
        return header + "\n" + row


def suite_stats(
    suites: list[TestSuite],
    heldout_neighbor_sets: list[NeighborSet],
    executor: QueryExecutor,
    time_limit: float | None = None,
) -> SuiteStats:
    """Table-style statistics over held-out neighbors (which must be
    disjoint from the construction neighbors)."""
    if len(suites) != len(heldout_neighbor_sets):
        raise ValueError("one held-out neighbor set per suite required")
    no_empty = 0
    covered = 0
    total_heldout = 0
    total_time = 0.0
    for suite, heldout in zip(suites, heldout_neighbor_sets):
        heldout_texts = heldout.texts()
        overlap = set(heldout_texts) & set(suite.construction_neighbors)
        if overlap:
            raise ValueError(f"held-out neighbors overlap construction: {overlap}")
        gold_ast = parse(suite.gold_query, suite.schema)
        t0 = time.monotonic()
        if any(not is_empty_output(den, gold_ast) for den in suite.gold_denotations):
            no_empty += 1
        total_time += time.monotonic() - t0
        tests = list(zip(suite.databases, suite.gold_denotations))
        for text in heldout_texts:
            total_heldout += 1
            if not matches_gold(executor, text, suite.gold_query, tests, time_limit):
                covered += 1
    n = max(len(suites), 1)
    return SuiteStats(
        no_empty_pct=100.0 * no_empty / n,
        cover_pct=100.0 * covered / max(total_heldout, 1),
        avg_tests=sum(len(s.databases) for s in suites) / n,
        avg_time=total_time / n,
        total_size_bytes=sum(s.size_bytes() for s in suites),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_suite(suite: TestSuite, root: str | Path) -> Path:
    """Write one suite as a directory: numbered SQLite files, a manifest,
    and serialized gold denotations."""
    out_dir = Path(root) / suite.query_id
    out_dir.mkdir(parents=True, exist_ok=True)
    db_files = []
    for i, db in enumerate(suite.databases):
        name = f"db_{i:03d}.sqlite"
        db.to_sqlite(out_dir / name)
        db_files.append(name)
    manifest = {
        "query_id": suite.query_id,
        "gold_query": suite.gold_query,
        "config": suite.config.to_json(),
        "databases": db_files,
        "db_seeds": [db.seed for db in suite.databases],
        "distinguished": {str(k): v for k, v in suite.distinguished.items()},
        "construction_neighbors": suite.construction_neighbors,
        "nonempty_found": suite.nonempty_found,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "gold_denotations.json", "w") as fh:
        json.dump([d.to_json() for d in suite.gold_denotations], fh, sort_keys=True)
        fh.write("\n")
    return out_dir


def load_suite(suite_dir: str | Path, schema: Schema) -> TestSuite:
    suite_dir = Path(suite_dir)
    with open(suite_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    with open(suite_dir / "gold_denotations.json") as fh:
        denotations = [Denotation.from_json(d) for d in json.load(fh)]
    databases = []
    for name, seed in zip(manifest["databases"], manifest["db_seeds"]):
        db = DatabaseInstance.from_sqlite(suite_dir / name, schema, provenance="fuzzed")
        db.seed = seed
        databases.append(db)
    return TestSuite(
        query_id=manifest["query_id"],
        gold_query=manifest["gold_query"],
        schema=schema,
        databases=databases,
        gold_denotations=denotations,
        distinguished={int(k): v for k, v in manifest["distinguished"].items()},
        construction_neighbors=manifest["construction_neighbors"],
        nonempty_found=manifest["nonempty_found"],
        config=SuiteConfig(**manifest["config"]),
    )
