"""Per-query semantic test suites built by database fuzzing.

For a gold query: generate near-miss neighbor queries by single-edit
perturbation, sample small databases biased toward the query's constants,
first secure a database with non-empty gold output, then greedily keep
databases that distinguish gold from not-yet-distinguished neighbors.
Each fuzzed database is tried in one executor request that builds it in
memory inside the worker; only `save_suite` writes the kept ones to disk.
Neighbors that `_inert_neighbors` proves no fuzzed database can tell apart,
from the fuzzer's own value rules, are never fuzzed for.

The fuzzer draws each column whole, with a few vector calls on one
`np.random.default_rng(seed)`: masks for the 3% NULL share and the
`hint_prob` share of hint constants, index arrays into the hint pool, the
original DB's values or the parent's values, and one array of fresh values.
One share table says how often a column takes the original DB's non-NULL
values instead of a fresh one: booleans always, dates half the time, every
other type 60%. NEP 19 lets `Generator`'s vector methods change between
numpy releases; the golden digests of the fixture suites would show it.

A neighbor is SQL text, from the edit catalog to the suite. A gold query's
neighbors are sampled from one `neighbor_pool`, which the construction set
keeps, so held-out neighbors are sampled from it without editing and
parsing every variant again.

Neighbors come from one walk and one table: `_edit_sites` lists every node
an edit can change, in a fixed order, and `_edits` maps one site to the
`(attribute, new value)` pairs of the nine-edit catalog. Each neighbor is
gold printed with one such attribute set on one of its own nodes, which
`_edited_text` then restores.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .executor import DatabaseInstance, Denotation, QueryExecutor
from .parser import ParseError, parse
from .query_ast import (
    BoolExpr,
    ColumnExpr,
    Comparison,
    Literal,
    OrderItem,
    QueryAst,
    SelectQuery,
    Star,
    extract_constants,
    leftmost_select,
    print_query,
    walk,
)
from .schema import ColumnId, Schema

_UNIQUE_NAME_MARKERS = ("name", "id", "phone")
# the operators a comparison swap exchanges, each with whether it holds for a
# value below, equal to and above the constant it compares with
_OP_HOLDS = {
    "=": (False, True, False),
    "!=": (True, False, True),
    "<": (True, False, False),
    "<=": (True, True, False),
    ">": (False, False, True),
    ">=": (False, True, True),
}
_COMPARISON_SWAPS = tuple(_OP_HOLDS)
# the fuzzer draws every fresh word over these letters with one of these lengths
_WORD_LETTERS = "abcdefghijklmnop"
_WORD_LENGTHS = range(3, 9)


class NoNeighborsPossible(ValueError):
    """The gold query admits no single-edit neighbor (degenerate query)."""


@dataclass
class NeighborSet:
    neighbors: list[str]
    # the `neighbor_pool` the neighbors were sampled from; a construction set
    # keeps it so that held-out neighbors are sampled from it too
    pool: list[str] | None = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Neighbor generation
# ---------------------------------------------------------------------------


def _is_unique_marker(schema: Schema, ref: ColumnId) -> bool:
    return schema.is_primary_key(ref) or any(
        m in ref.column.lower() for m in _UNIQUE_NAME_MARKERS
    )


_EditSite = SelectQuery | BoolExpr | Comparison | ColumnExpr | OrderItem


def _edit_sites(ast: QueryAst) -> list[_EditSite]:
    """Every node a single edit changes, in one fixed order: each walk
    node; after a SELECT, its select items, ORDER BY items and their
    expressions; after a comparison, its left side."""
    sites: list[_EditSite] = []
    for node in walk(ast):
        sites.append(node)
        if isinstance(node, SelectQuery):
            sites.extend(node.select)
            sites.extend(node.order_by)
            sites.extend(o.expr for o in node.order_by)
        elif isinstance(node, Comparison):
            sites.append(node.left)
    return sites


def _edits(site: _EditSite, schema: Schema) -> Iterator[tuple[str, object]]:
    """The `(attribute, new value)` pairs of the nine-edit catalog at one site."""
    if isinstance(site, Comparison):
        # 1. comparison operator swap
        if site.op in _COMPARISON_SWAPS:
            for new_op in _COMPARISON_SWAPS:
                if new_op != site.op:
                    yield "op", new_op
        # 2. numeric literal nudged by one or doubled
        value = site.right.value if isinstance(site.right, Literal) else None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            for new_value in (value + 1, value - 1, value * 2):
                if new_value != value:
                    yield "right", Literal(new_value, site.right.type)
    elif isinstance(site, ColumnExpr):
        # 3. aggregator swap (legality preserved)
        if site.agg != "none":
            if isinstance(site.target, Star):
                legal = {"count"}
            elif schema.column_type(site.target) in ("integer", "real"):
                legal = {"count", "min", "max", "sum", "avg"}
            else:
                legal = {"count", "min", "max"}
            for new_agg in sorted(legal - {site.agg}):
                yield "agg", new_agg
        # 4. DISTINCT toggle inside COUNT(col)
        if (site.agg == "count" and isinstance(site.target, ColumnId)
                and not schema.is_primary_key(site.target)):
            yield "distinct", not site.distinct
        # 9. replace a column with a same-type sibling
        if isinstance(site.target, ColumnId):
            ref = site.target
            for sibling in schema.columns_of_type(ref.table, schema.column_type(ref)):
                if sibling != ref.column:
                    yield "target", ColumnId(ref.table, sibling)
    elif isinstance(site, SelectQuery):
        # 4. SELECT DISTINCT toggle (skipped where uniqueness makes it a
        # no-op; the fuzzer keys uniqueness off the same marker heuristic,
        # so toggles on marker columns would be undetectable by construction)
        only = site.select[0].target if len(site.select) == 1 else None
        provably_noop = isinstance(only, ColumnId) and _is_unique_marker(schema, only)
        if not provably_noop and all(e.agg == "none" for e in site.select):
            yield "select_distinct", not site.select_distinct
        # 6. LIMIT changed by one
        if site.limit is not None:
            for new_limit in (site.limit + 1, site.limit - 1):
                if new_limit >= 1:
                    yield "limit", new_limit
        # 8. drop one predicate
        for clause in ("where", "having"):
            pred = getattr(site, clause)
            if isinstance(pred, Comparison):
                yield clause, None
            elif isinstance(pred, BoolExpr):
                for ai in range(len(pred.args)):
                    rest = pred.args[:ai] + pred.args[ai + 1:]
                    yield clause, rest[0] if len(rest) == 1 else BoolExpr(pred.op, rest)
    elif isinstance(site, OrderItem):
        # 5. order direction flip
        yield "desc", not site.desc
    else:  # BoolExpr
        # 7. AND/OR swap
        yield "op", "or" if site.op == "and" else "and"


def _edited_text(gold: QueryAst, site: _EditSite, attr: str, value: object) -> str:
    """`gold` printed with `attr` set to `value` on `site`, one of its own
    nodes; the attribute is restored before this returns or raises. A node
    that comparisons share (BETWEEN, an IN list) is edited in all of them."""
    old = getattr(site, attr)
    setattr(site, attr, value)
    try:
        return print_query(gold)
    finally:
        setattr(site, attr, old)


def _edit_texts(gold: QueryAst, schema: Schema) -> list[str]:
    """The printed text of every single-edit perturbation from the fixed
    nine-edit catalog, in catalog order."""
    return [
        _edited_text(gold, site, attr, value)
        for site in _edit_sites(gold)
        for attr, value in _edits(site, schema)
    ]


def neighbor_pool(gold: QueryAst, schema: Schema) -> list[str]:
    """The sorted texts of every distinct single-edit neighbor of `gold`
    that parses and resolves and is not structurally equal to it. Each
    text is parsed once."""
    gold_text = print_query(gold)
    gold_canonical = parse(gold_text, schema)
    seen = {gold_text}
    pool = []
    for text in _edit_texts(gold, schema):
        if text in seen:
            continue
        seen.add(text)
        try:
            reparsed = parse(text, schema)
        except ParseError:
            continue
        if reparsed != gold_canonical:
            pool.append(text)
    if not pool:
        raise NoNeighborsPossible(f"no neighbors for {gold_text!r}")
    return sorted(pool)


def sample_neighbors(pool: list[str], count: int, seed: int) -> list[str]:
    """Up to `count` texts of `pool`, in a seeded shuffle of its order."""
    texts = list(pool)
    np.random.default_rng(seed).shuffle(texts)
    return texts[:count]


def generate_neighbors(
    gold: QueryAst, schema: Schema, count: int, seed: int = 0
) -> NeighborSet:
    """Up to `count` distinct single-edit neighbors, all parseable and
    resolvable, none structurally equal to the gold query. The set keeps
    the pool they were sampled from."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pool = neighbor_pool(gold, schema)
    return NeighborSet(sample_neighbors(pool, count, seed), pool)


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


def _hint_pools(
    constant_hints: list[tuple[ColumnId, int | float | str, str]],
) -> dict[ColumnId, list]:
    """Each hinted column's pool: its literals, and a number's unit offsets."""
    hints: dict[ColumnId, list] = {}
    for ref, value, _op in constant_hints:
        pool = hints.setdefault(ref, [])
        pool.append(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            pool.extend([value + 1, value - 1])
    return hints


def _fuzzed_unique(schema: Schema, ref: ColumnId, original: DatabaseInstance | None) -> bool:
    """Whether `fuzz_database` fills `ref` duplicate-free: a unique marker,
    unless an original DB is given, `ref` is no primary key and the
    original's values repeat or are all NULL."""
    unique = _is_unique_marker(schema, ref)
    if unique and original is not None and not schema.is_primary_key(ref):
        values = [v for v in original.column_values(ref) if v is not None]
        unique = len(set(values)) == len(values) > 0
    return unique


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
    probability, and every column draws a share of the original DB's
    values; unique-looking columns get duplicate-free values; foreign keys
    are satisfied from the generated parent keys. Each column is drawn
    whole from one `np.random.default_rng(seed)`.
    """
    if row_cap < 1:
        raise ValueError("row cap must be >= 1")
    rng = np.random.default_rng(seed)
    hints = _hint_pools(constant_hints)

    tables: dict[str, list[tuple]] = {}
    generated: dict[ColumnId, list] = {}

    for table_name in _topo_tables(schema):
        table = schema.table(table_name)
        nrows = int(rng.integers(max(1, row_cap // 2), row_cap + 1))
        columns: list[list] = []
        for col_name, ctype in table.columns:
            ref = ColumnId(table_name, col_name)
            original_pool = [] if original is None else [
                v for v in original.column_values(ref) if v is not None]
            parent = schema.parent_of(ref)
            parent_values = generated.get(parent, []) if parent is not None else None
            columns.append(
                _fuzz_column(
                    rng, ctype, nrows, hints.get(ref, []), original_pool,
                    _fuzzed_unique(schema, ref, original), parent_values, hint_prob,
                )
            )
        # zip cuts every column to the shortest one
        rows = list(zip(*columns))
        tables[table_name] = rows
        for (col_name, _), col in zip(table.columns, columns):
            generated[ColumnId(table_name, col_name)] = col[:len(rows)]

    return DatabaseInstance(schema, tables, seed=seed)


def _typed(ctype: str, value):
    """`value` as the fuzzer stores it in a `ctype` column: a number cut to
    an integer or rounded to float16, anything in a text column as text."""
    if ctype == "integer" and isinstance(value, (int, float)):
        return int(value)
    if ctype == "real" and isinstance(value, (int, float)):
        return float(np.float16(float(value)))
    if ctype == "text":
        return str(value)
    return value


def _drawn_values(rng: np.random.Generator, ctype: str, n: int, original_pool: list) -> list:
    """`n` values of a `ctype` column: integers in [-100, 1000], float16
    roundings of reals in [-100, 1000), 0/1 booleans, dates in 1990-2030 or
    words of `_WORD_LENGTHS` letters from `_WORD_LETTERS`, each replaced by
    one of `original_pool`'s values with the type's share of the original DB."""
    if ctype == "integer":
        values = rng.integers(-100, 1001, n).tolist()
    elif ctype == "real":
        values = rng.uniform(-100.0, 1000.0, n).astype(np.float16).astype(float).tolist()
    elif ctype == "boolean":
        values = rng.integers(0, 2, n).tolist()
    elif ctype == "time":
        days = rng.integers([1990, 1, 1], [2031, 13, 29], (n, 3)).tolist()
        values = [f"{y:04d}-{m:02d}-{d:02d}" for y, m, d in days]
    else:  # text: words cut to their lengths from rows of the longest length
        width = _WORD_LENGTHS[-1]
        letters = np.array(list(_WORD_LETTERS))[rng.integers(0, len(_WORD_LETTERS), (n, width))]
        lengths = rng.integers(_WORD_LENGTHS.start, _WORD_LENGTHS.stop, n).tolist()
        values = [w[:k] for w, k in zip(letters.view(f"<U{width}").ravel().tolist(), lengths)]
    if original_pool:
        share = {"boolean": 1.0, "time": 0.5}.get(ctype, 0.6)
        picks = rng.integers(len(original_pool), size=n).tolist()
        for i in np.flatnonzero(rng.random(n) < share).tolist():
            values[i] = original_pool[picks[i]]
    return values


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
    if parent_values is not None:
        pool = [v for v in parent_values if v is not None]
        if not pool:
            return [None] * nrows
        if unique:
            distinct = list(dict.fromkeys(pool))
            rng.shuffle(distinct)
            return distinct[:nrows]
        return [pool[i] for i in rng.integers(len(pool), size=nrows).tolist()]

    hint_pool = [_typed(ctype, v) for v in hint_pool]
    original_pool = [_typed(ctype, v) for v in original_pool]
    if unique:
        values: list = []
        seen: set = set()
        top = None  # the largest number in `seen`

        def keep(v) -> None:
            nonlocal top
            seen.add(v)
            values.append(v)
            if isinstance(v, (int, float)) and (top is None or v > top):
                top = v

        for v in hint_pool:
            if v not in seen and len(values) < nrows:
                keep(v)
        drawn = 0
        while len(values) < nrows and drawn < nrows * 50:
            batch = _drawn_values(rng, ctype, min(nrows - len(values), nrows * 50 - drawn),
                                  original_pool)
            drawn += len(batch)
            for v in batch:
                if ctype in ("integer", "real") and v in seen:
                    v = _typed(ctype, (0 if top is None else top) + 1 + len(values))
                if ctype == "text" and v in seen:
                    v = f"{v}_{len(values)}"
                if v not in seen:
                    keep(v)
        rng.shuffle(values)
        return values

    values = _drawn_values(rng, ctype, nrows, original_pool)
    for i in np.flatnonzero(rng.random(nrows) < 0.03).tolist():
        values[i] = None
    if hint_pool:  # a hinted cell is never NULL
        picks = rng.integers(len(hint_pool), size=nrows).tolist()
        for i in np.flatnonzero(rng.random(nrows) < hint_prob).tolist():
            values[i] = hint_pool[picks[i]]
    return values


# ---------------------------------------------------------------------------
# Neighbors no fuzzed database tells apart
# ---------------------------------------------------------------------------


def _fills_distinct(schema: Schema, ref: ColumnId, original: DatabaseInstance | None,
                    hint_pool: list) -> bool:
    """Whether every fuzzed DB holds pairwise distinct non-NULL values in
    `ref`, as SQLite stores them. A foreign-key child draws from its parent's
    values, or is all NULL when those are; a text value in a number column,
    a hint (a LIKE pattern) or one of the original DB's, could store as a
    number another row holds."""
    if not _fuzzed_unique(schema, ref, original) or schema.parent_of(ref) is not None:
        return False
    ctype = schema.column_type(ref)
    if ctype == "text":
        return True
    drawn = list(hint_pool)
    if original is not None:
        drawn += [v for v in original.column_values(ref) if v is not None]
    return ctype in ("integer", "real") and all(isinstance(v, (int, float)) for v in drawn)


def _distinct_is_noop(select: SelectQuery, schema: Schema,
                      original: DatabaseInstance | None, hints: dict[ColumnId, list]) -> bool:
    """Whether DISTINCT removes no row of `select` on any fuzzed DB: it reads
    one table, with no join, grouping, ORDER BY or LIMIT, and selects a
    column `_fills_distinct` holds for, so each output row comes from its own
    table row. (With ORDER BY … LIMIT, SQLite applies DISTINCT before the
    sort and can return other rows.)"""
    if (len(select.tables) != 1 or select.joins or select.group_by
            or select.having is not None or select.order_by or select.limit is not None):
        return False
    return any(
        e.agg == "none" and isinstance(e.target, ColumnId)
        and _fills_distinct(schema, e.target, original, hints.get(e.target, []))
        for e in select.select
    )


def _swap_is_noop(comparison: Comparison, new_op: str, schema: Schema,
                  original: DatabaseInstance | None, hints: dict[ColumnId, list]) -> bool:
    """Whether swapping `comparison.op` for `new_op` changes its truth on no
    row of any fuzzed DB: a bare text column against a text constant `c`,
    where no value the fuzzer can put in the column lies where the two
    operators disagree (below, at or above `c`). Those values are the
    column's hints, the original DB's values and the fuzzer's words; a
    NULL makes both comparisons NULL."""
    left, right = comparison.left, comparison.right
    if not (left.agg == "none" and isinstance(left.target, ColumnId)
            and isinstance(right, Literal) and isinstance(right.value, str)):
        return False
    ref, c = left.target, right.value
    if (schema.column_type(ref) != "text" or _fuzzed_unique(schema, ref, original)
            or schema.parent_of(ref) is not None):
        return False
    values = [str(v) for v in hints.get(ref, [])]
    if original is not None:
        values += [str(v) for v in original.column_values(ref) if v is not None]
    sides = {(v > c) - (v < c) + 1 for v in values}  # 0 below, 1 at, 2 above c
    if min(_WORD_LETTERS) * _WORD_LENGTHS[0] < c:
        sides.add(0)
    if len(c) in _WORD_LENGTHS and set(c) <= set(_WORD_LETTERS):
        sides.add(1)
    if max(_WORD_LETTERS) * _WORD_LENGTHS[-1] > c:
        sides.add(2)
    return all(_OP_HOLDS[comparison.op][side] == _OP_HOLDS[new_op][side] for side in sides)


def _inert_neighbors(gold: QueryAst, schema: Schema,
                     original: DatabaseInstance | None) -> set[str]:
    """The printed texts of gold's single-edit neighbors that no database
    `fuzz_database` makes tells apart from gold, proved from the fuzzer's own
    value rules: a SELECT DISTINCT toggle on the top-level SELECT where
    `_distinct_is_noop` holds (a scalar subquery reads its first row, which
    DISTINCT can reorder), and a comparison operator swap where
    `_swap_is_noop` holds. Leaving such a neighbor out of suite building
    changes a suite only where it would have erred or timed out where gold
    did not: it has gold's tables, columns and types, and a DISTINCT over
    one fuzzed table of `row_cap` rows (100 by default) is far below the
    30 s default time limit."""
    hints = _hint_pools(extract_constants(gold))
    inert: set[str] = set()
    for site in _edit_sites(gold):
        for attr, value in _edits(site, schema):
            if attr == "select_distinct":
                proved = site is gold and _distinct_is_noop(site, schema, original, hints)
            elif attr == "op" and isinstance(site, Comparison):
                proved = _swap_is_noop(site, value, schema, original, hints)
            else:
                proved = False
            if proved:
                inert.add(_edited_text(gold, site, attr, value))
    return inert


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


def is_empty_output(d: Denotation, gold_ast: QueryAst) -> bool:
    """Empty denotation, or all-aggregate select returning only zeros/NULLs
    (the degenerate output of aggregates over an empty relation)."""
    if not d.rows:
        return True
    select = leftmost_select(gold_ast).select
    if not all(e.agg != "none" for e in select):
        return False
    return all(cell in (0, 0.0, None) for row in d.rows for cell in row)


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
    neighbor_texts = neighbors.neighbors
    suite = TestSuite(
        query_id=query_id,
        gold_query=gold_text,
        schema=schema,
        construction_neighbors=neighbor_texts,
        config=config,
    )
    # a neighbor no fuzzed DB tells apart would keep phase 2 fuzzing to
    # max_attempts
    inert = _inert_neighbors(gold, schema, original)
    remaining = {i for i, text in enumerate(neighbor_texts) if text not in inert}
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

    def qualify(db: DatabaseInstance, require_nonempty: bool) -> bool:
        """Keep db if it qualifies; returns True when kept. One executor
        request runs gold and the remaining neighbors on db, in memory."""
        todo = sorted(remaining)
        gold_out, apart = executor.distinguish(
            db, gold_text, [neighbor_texts[idx] for idx in todo], time_limit=config.time_limit)
        if gold_out is None:
            return False
        nonempty = not is_empty_output(gold_out, gold)
        if require_nonempty and not nonempty:
            return False
        newly = [todo[i] for i in apart]
        if require_nonempty or newly:
            db_index = len(suite.databases)
            suite.databases.append(db)
            suite.gold_denotations.append(gold_out)
            suite.distinguished[db_index] = newly
            remaining.difference_update(newly)
            if nonempty:
                suite.nonempty_found = True
            return True
        return False

    # phase 1: secure non-empty gold output
    for _ in range(config.nonempty_attempts):
        if qualify(sample_db(), require_nonempty=True):
            break

    # phase 2: greedy distinguishing loop
    while (
        remaining
        and len(suite.databases) < config.max_dbs
        and attempt < config.max_attempts
    ):
        qualify(sample_db(), require_nonempty=False)

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
    disjoint from the construction neighbors). NoEmpty is the share of
    suites whose construction kept a DB with non-empty gold output."""
    if len(suites) != len(heldout_neighbor_sets):
        raise ValueError("one held-out neighbor set per suite required")
    no_empty = 0
    covered = 0
    total_heldout = 0
    for suite, heldout in zip(suites, heldout_neighbor_sets):
        overlap = set(heldout.neighbors) & set(suite.construction_neighbors)
        if overlap:
            raise ValueError(f"held-out neighbors overlap construction: {overlap}")
        no_empty += suite.nonempty_found
        # one request per suite database, for the neighbors no earlier one
        # told apart
        left = heldout.neighbors
        total_heldout += len(left)
        for db, gold in zip(suite.databases, suite.gold_denotations):
            if not left:
                break
            _, apart = executor.distinguish(db, suite.gold_query, left, gold,
                                            time_limit=time_limit)
            covered += len(apart)
            told = set(apart)
            left = [text for i, text in enumerate(left) if i not in told]
    n = max(len(suites), 1)
    return SuiteStats(
        no_empty_pct=100.0 * no_empty / n,
        cover_pct=100.0 * covered / max(total_heldout, 1),
        avg_tests=sum(len(s.databases) for s in suites) / n,
        avg_time=sum(s.build_time for s in suites) / n,
        total_size_bytes=sum(s.size_bytes() for s in suites),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_suite(suite: TestSuite, root: str | Path) -> Path:
    """Write one suite as a directory: numbered SQLite files, a manifest,
    and serialized gold denotations. The suite is written into a temporary
    sibling directory, which then takes the place of a suite saved there
    before, so a save that stops part way leaves the earlier suite whole;
    the next save removes what it left."""
    out_dir = Path(root) / suite.query_id
    new_dir, old_dir = (out_dir.with_name(f".{suite.query_id}.{part}")
                        for part in ("new", "old"))
    for leftover in (new_dir, old_dir):
        shutil.rmtree(leftover, ignore_errors=True)
    new_dir.mkdir(parents=True)
    db_files = []
    for i, db in enumerate(suite.databases):
        name = f"db_{i:03d}.sqlite"
        db.to_sqlite(new_dir / name)
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
        "build_time": suite.build_time,
    }
    with open(new_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(new_dir / "gold_denotations.json", "w") as fh:
        json.dump([d.to_json() for d in suite.gold_denotations], fh, sort_keys=True)
        fh.write("\n")
    if out_dir.exists():
        out_dir.rename(old_dir)
    new_dir.rename(out_dir)
    shutil.rmtree(old_dir, ignore_errors=True)
    for db, name in zip(suite.databases, db_files):
        db._path = out_dir / name  # later executions read this file
    return out_dir


def _suite_part(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path.parent}: {path.name} is not JSON ({exc})") from None


def load_suite(suite_dir: str | Path, schema: Schema) -> TestSuite:
    """The suite `save_suite` wrote to `suite_dir`. A part that is not JSON
    or lacks a field, a config `SuiteConfig` does not take, and parts that
    disagree raise a ValueError naming the suite directory."""
    suite_dir = Path(suite_dir)
    manifest = _suite_part(suite_dir / "manifest.json")
    golds = _suite_part(suite_dir / "gold_denotations.json")
    try:
        names, seeds = manifest["databases"], manifest["db_seeds"]
        suite = TestSuite(
            query_id=manifest["query_id"],
            gold_query=manifest["gold_query"],
            schema=schema,
            gold_denotations=[Denotation.from_json(d) for d in golds],
            distinguished={int(k): v for k, v in manifest["distinguished"].items()},
            construction_neighbors=manifest["construction_neighbors"],
            nonempty_found=manifest["nonempty_found"],
            build_time=manifest.get("build_time", 0.0),
            config=SuiteConfig(**manifest["config"]),
        )
    except KeyError as exc:
        raise ValueError(f"{suite_dir}: a part of the suite has no {exc} field") from None
    except TypeError as exc:  # such as a config key SuiteConfig does not take
        raise ValueError(f"{suite_dir}: {exc}") from None
    if not len(names) == len(seeds) == len(suite.gold_denotations):
        raise ValueError(f"{suite_dir}: the suite's parts disagree: {len(names)} databases, "
                         f"{len(seeds)} db_seeds and {len(suite.gold_denotations)} gold "
                         "denotations")
    for name, seed in zip(names, seeds):
        db = DatabaseInstance.from_sqlite(suite_dir / name, schema)
        db.seed = seed
        suite.databases.append(db)
    return suite
