"""Per-query semantic test suites built by database fuzzing.

For a gold query: generate near-miss neighbor queries by single-edit
perturbation, sample small databases biased toward the query's constants,
first secure a database with non-empty gold output, then greedily keep
databases that distinguish gold from not-yet-distinguished neighbors.
Each fuzzed database is tried in one executor request that builds it in
memory inside the worker; only `save_suite` writes the kept ones to disk.
Neighbors that `_inert_neighbors` proves no fuzzed database can tell apart,
from the fuzzer's own value rules, are never fuzzed for. The fuzzer draws
from `_Draws`, which replays numpy's `Generator` draws over raw PCG64 words
without numpy's per-call cost.

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
# `_random_word` draws every string over these letters with one of these lengths
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


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


class _Draws:
    """The draws `np.random.default_rng(seed)` makes through `random`,
    `uniform`, `integers` and list `shuffle`, replayed in Python over the
    raw 64-bit words of the same PCG64 stream, read in chunks.

    numpy pays a per-call cost far above the arithmetic of one scalar draw,
    and the fuzzer makes thousands per database. This class repeats numpy's
    transforms exactly (numpy/random/src/distributions): `random` keeps a
    word's top 53 bits; `integers` is Lemire's method on 32-bit halves for a
    range up to 2**32, the low half first and the high half kept for the next
    32-bit draw, and on whole words above it; `shuffle` is Fisher-Yates from
    the end with a masked interval draw. NEP 19 keeps bit-generator streams
    fixed across numpy releases but lets `Generator` methods change, so this
    class also pins fuzzed databases to the raw stream."""

    _CHUNK = 256

    def __init__(self, seed: int) -> None:
        self._bits = np.random.PCG64(seed)  # the state default_rng(seed) starts from
        self._words: list[int] = []  # unread words of the last chunk, last one next
        self._half: int | None = None  # a word's high half, for the next 32-bit draw

    def _word(self) -> int:
        try:
            return self._words.pop()
        except IndexError:
            self._words = self._bits.random_raw(self._CHUNK).tolist()[::-1]
            return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int | None = None) -> int:
        """An integer in [low, high), or in [0, low) without `high`."""
        if high is None:
            low, high = 0, low
        n = high - low
        if n < 1:
            raise ValueError("high <= low")
        if n == 1:
            return low
        if n > 1 << 32:
            m = self._word() * n
            if m & _MASK64 < n:
                threshold = (1 << 64) % n
                while m & _MASK64 < threshold:
                    m = self._word() * n
            return low + (m >> 64)
        if n == 1 << 32:
            return low + self._uint32()
        m = self._uint32() * n
        if m & _MASK32 < n:
            threshold = (1 << 32) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return low + (m >> 32)

    def shuffle(self, values: list) -> None:
        # numpy draws a 64-bit index only for a list of more than 2**32 items
        for i in range(len(values) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            values[i], values[j] = values[j], values[i]


def _random_word(rng: _Draws) -> str:
    n = rng.integers(_WORD_LENGTHS.start, _WORD_LENGTHS.stop)
    # numpy's sized integers(0, 16, n) draws its n letters one at a time too
    return "".join(_WORD_LETTERS[rng.integers(0, len(_WORD_LETTERS))] for _ in range(n))


def _random_date(rng: _Draws) -> str:
    return f"{int(rng.integers(1990, 2031)):04d}-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"


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
    probability; unique-looking columns get duplicate-free values; foreign
    keys are satisfied from the generated parent keys.
    """
    if row_cap < 1:
        raise ValueError("row cap must be >= 1")
    rng = _Draws(seed)
    hints = _hint_pools(constant_hints)

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
            unique = _fuzzed_unique(schema, ref, original)
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
    rng: _Draws,
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
# Neighbors no fuzzed database tells apart
# ---------------------------------------------------------------------------


def _fills_distinct(schema: Schema, ref: ColumnId, original: DatabaseInstance | None,
                    hint_pool: list) -> bool:
    """Whether every fuzzed DB holds pairwise distinct non-NULL values in
    `ref`, as SQLite stores them. A foreign-key child draws from its parent's
    values, or is all NULL when those are; a text hint in a number column
    (a LIKE pattern) could store as a number another row holds."""
    if not _fuzzed_unique(schema, ref, original) or schema.parent_of(ref) is not None:
        return False
    ctype = schema.column_type(ref)
    return ctype == "text" or (
        ctype in ("integer", "real")
        and all(isinstance(v, (int, float)) for v in hint_pool))


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
    column's hints, the original DB's values and `_random_word`'s words; a
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
    disjoint from the construction neighbors)."""
    if len(suites) != len(heldout_neighbor_sets):
        raise ValueError("one held-out neighbor set per suite required")
    no_empty = 0
    covered = 0
    total_heldout = 0
    for suite, heldout in zip(suites, heldout_neighbor_sets):
        overlap = set(heldout.neighbors) & set(suite.construction_neighbors)
        if overlap:
            raise ValueError(f"held-out neighbors overlap construction: {overlap}")
        gold_ast = parse(suite.gold_query, suite.schema)
        if any(not is_empty_output(den, gold_ast) for den in suite.gold_denotations):
            no_empty += 1
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
    and serialized gold denotations. A suite saved there before is
    replaced, database files included."""
    out_dir = Path(root) / suite.query_id
    out_dir.mkdir(parents=True, exist_ok=True)
    db_files = []
    for i, db in enumerate(suite.databases):
        name = f"db_{i:03d}.sqlite"
        db._path = db.to_sqlite(out_dir / name)  # later executions read this file
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
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "gold_denotations.json", "w") as fh:
        json.dump([d.to_json() for d in suite.gold_denotations], fh, sort_keys=True)
        fh.write("\n")
    for stale in out_dir.glob("db_*.sqlite"):  # left by an earlier save with more DBs
        if stale.name not in db_files:
            stale.unlink()
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
        build_time=manifest.get("build_time", 0.0),
        config=SuiteConfig(**manifest["config"]),
    )
