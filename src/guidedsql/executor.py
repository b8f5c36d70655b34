"""Query execution against SQLite instances with timeouts and crash isolation.

Queries run inside worker subprocesses so that engine crashes or runaway
queries never take down the evaluation run; both conditions come back as
in-band outcomes. Execution results are normalized into Denotations, the
unit of semantic comparison.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import queue
import re
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .query_ast import QueryAst, leftmost_select
from .schema import ColumnId, Schema

_SQLITE_TYPES = {
    "integer": "INTEGER",
    "real": "REAL",
    "text": "TEXT",
    "boolean": "NUMERIC",
    "time": "NUMERIC",
}

# How long past the query time limit we wait for the worker before killing it.
_GRACE = 0.4


def normalize_cell(value):
    """Canonical cell form: ints, floats, text, or None. Floats keep full
    precision; `compare` decides numeric equality within a tolerance."""
    if value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 2**53:
            return int(value)
        return value
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    return value


@dataclass
class Denotation:
    """Normalized execution result; the ordered flag mirrors a top-level
    ORDER BY in the producing query."""

    column_count: int
    rows: list[tuple]
    ordered: bool = False

    def to_json(self) -> dict:
        return {
            "column_count": self.column_count,
            "ordered": self.ordered,
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Denotation":
        rows = [tuple(normalize_cell(c) for c in r) for r in data["rows"]]
        return cls(data["column_count"], rows, data["ordered"])


@dataclass
class ExecutionOutcome:
    """Success(denotation), Error(message) or Timeout(limit); never raised."""

    status: str  # "success" | "error" | "timeout"
    denotation: Denotation | None = None
    message: str | None = None
    wall_time: float = 0.0
    limit: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "success"


def has_top_level_order_by(sql: str) -> bool:
    depth = 0
    tokens = re.findall(r"'(?:[^']|'')*'|\(|\)|[A-Za-z_]+|\S", sql)
    for i, tok in enumerate(tokens):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif depth == 0 and tok.lower() == "order":
            if i + 1 < len(tokens) and tokens[i + 1].lower() == "by":
                return True
    return False


# ---------------------------------------------------------------------------
# Database instances
# ---------------------------------------------------------------------------

_TEMP_DIR: tempfile.TemporaryDirectory | None = None
_TEMP_COUNT = 0
_TEMP_LOCK = threading.Lock()


def _temp_db_path() -> Path:
    global _TEMP_DIR, _TEMP_COUNT
    with _TEMP_LOCK:
        if _TEMP_DIR is None:
            _TEMP_DIR = tempfile.TemporaryDirectory(prefix="guidedsql-db-")
        _TEMP_COUNT += 1
        return Path(_TEMP_DIR.name) / f"db_{os.getpid()}_{_TEMP_COUNT}.sqlite"


@dataclass
class DatabaseInstance:
    """A concrete database: schema plus typed rows per table."""

    schema: Schema
    tables: dict[str, list[tuple]]
    provenance: str = "original"
    seed: int | None = None
    _path: Path | None = field(default=None, repr=False, compare=False)

    def to_sqlite(self, path: str | Path) -> Path:
        path = Path(path)
        if path.exists():
            path.unlink()
        con = sqlite3.connect(path)
        try:
            for table in self.schema.tables:
                cols = ", ".join(
                    f'"{name}" {_SQLITE_TYPES[ctype]}' for name, ctype in table.columns
                )
                con.execute(f'CREATE TABLE "{table.name}" ({cols})')
                rows = self.tables.get(table.name, [])
                if rows:
                    marks = ", ".join("?" * len(table.columns))
                    con.executemany(f'INSERT INTO "{table.name}" VALUES ({marks})', rows)
            con.commit()
        finally:
            con.close()
        return path

    @classmethod
    def from_sqlite(cls, path: str | Path, schema: Schema, provenance: str = "original") -> "DatabaseInstance":
        con = sqlite3.connect(f"file:{Path(path)}?mode=ro", uri=True)
        con.text_factory = lambda b: b.decode("utf-8", "replace")
        try:
            tables = {}
            for table in schema.tables:
                cols = ", ".join(f'"{c}"' for c, _ in table.columns)
                cur = con.execute(f'SELECT {cols} FROM "{table.name}"')
                tables[table.name] = [
                    tuple(normalize_cell(c) for c in row) for row in cur.fetchall()
                ]
        finally:
            con.close()
        inst = cls(schema, tables, provenance=provenance)
        inst._path = Path(path)
        return inst

    def materialize(self) -> Path:
        """Write to a cached temp SQLite file and return its path."""
        if self._path is None or not self._path.exists():
            self._path = self.to_sqlite(_temp_db_path())
        return self._path

    def size_bytes(self) -> int:
        return self.materialize().stat().st_size

    def validate(self) -> list[str]:
        """Constraint violations (types, PK uniqueness, FK references)."""
        problems: list[str] = []
        for table in self.schema.tables:
            for row in self.tables.get(table.name, []):
                if len(row) != len(table.columns):
                    problems.append(f"{table.name}: row arity {len(row)}")
                    continue
                for cell, (col, ctype) in zip(row, table.columns):
                    if cell is None:
                        continue
                    if ctype == "integer" and not isinstance(cell, int):
                        problems.append(f"{table.name}.{col}: non-integer {cell!r}")
                    elif ctype == "real" and not isinstance(cell, (int, float)):
                        problems.append(f"{table.name}.{col}: non-numeric {cell!r}")
                    elif ctype == "text" and not isinstance(cell, str):
                        problems.append(f"{table.name}.{col}: non-text {cell!r}")
        for pk in self.schema.primary_keys:
            values = self.column_values(pk)
            non_null = [v for v in values if v is not None]
            if len(set(non_null)) != len(non_null):
                problems.append(f"duplicate primary key values in {pk}")
        for child, parent in self.schema.foreign_keys:
            parent_values = set(self.column_values(parent))
            for v in self.column_values(child):
                if v is not None and v not in parent_values:
                    problems.append(f"dangling foreign key {child} -> {parent}: {v!r}")
        return problems

    def column_values(self, ref: ColumnId) -> list:
        table = self.schema.table(ref.table)
        idx = table.column_names().index(ref.column)
        return [row[idx] for row in self.tables.get(ref.table, [])]


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _worker_main(pipe, enable_test_functions: bool) -> None:
    connections: dict[str, sqlite3.Connection] = {}
    while True:
        try:
            msg = pipe.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if msg is None:
            return
        db_path, sql, limit = msg
        try:
            con = connections.get(db_path)
            if con is None:
                if len(connections) > 64:
                    for old in connections.values():
                        old.close()
                    connections.clear()
                con = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
                con.text_factory = lambda b: b.decode("utf-8", "replace")
                if enable_test_functions:
                    con.create_function("crash_now", 0, lambda: os._exit(13))
                connections[db_path] = con
            deadline = time.monotonic() + limit
            con.set_progress_handler(
                lambda: 1 if time.monotonic() > deadline else 0, 2000
            )
            cur = con.execute(sql)
            rows = cur.fetchall()
            ncols = len(cur.description) if cur.description else 0
            pipe.send(("ok", ncols, rows))
        except sqlite3.OperationalError as exc:
            if "interrupted" in str(exc).lower():
                pipe.send(("timeout", limit, None))
            else:
                pipe.send(("error", str(exc), None))
        except Exception as exc:  # engine errors stay in-band
            pipe.send(("error", str(exc), None))


class _Worker:
    def __init__(self, ctx, enable_test_functions: bool):
        self._ctx = ctx
        self._enable_test_functions = enable_test_functions
        self._spawn()

    def _spawn(self) -> None:
        self.pipe, child = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child, self._enable_test_functions),
            daemon=True,
        )
        self.process.start()
        child.close()

    def respawn(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=5)
        except Exception:
            pass
        self.pipe.close()
        self._spawn()

    def stop(self) -> None:
        try:
            self.pipe.send(None)
        except Exception:
            pass
        self.process.join(timeout=2)
        if self.process.is_alive():
            self.process.kill()
        self.pipe.close()


class QueryExecutor:
    """Pool of isolated workers; `execute` is thread-safe."""

    def __init__(
        self,
        time_limit: float = 30.0,
        workers: int = 1,
        enable_test_functions: bool = False,
    ):
        self.time_limit = time_limit
        self._ctx = mp.get_context("fork")
        self._pool: queue.Queue[_Worker] = queue.Queue()
        self._workers = [
            _Worker(self._ctx, enable_test_functions) for _ in range(workers)
        ]
        for w in self._workers:
            self._pool.put(w)

    def execute(
        self,
        sql: str,
        db: DatabaseInstance | str | Path,
        time_limit: float | None = None,
    ) -> ExecutionOutcome:
        limit = self.time_limit if time_limit is None else time_limit
        if limit <= 0:
            raise ValueError("time limit must be positive")
        db_path = str(db.materialize() if isinstance(db, DatabaseInstance) else Path(db))
        worker = self._pool.get()
        start = time.monotonic()
        try:
            try:
                worker.pipe.send((db_path, sql, limit))
            except (BrokenPipeError, OSError):
                worker.respawn()
                worker.pipe.send((db_path, sql, limit))
            if not worker.pipe.poll(limit + _GRACE):
                worker.respawn()
                return ExecutionOutcome(
                    "timeout", wall_time=time.monotonic() - start, limit=limit
                )
            try:
                reply = worker.pipe.recv()
            except (EOFError, OSError):
                worker.respawn()
                return ExecutionOutcome(
                    "error",
                    message="query worker crashed",
                    wall_time=time.monotonic() - start,
                )
        finally:
            self._pool.put(worker)
        wall = time.monotonic() - start
        kind, payload, extra = reply[0], reply[1], reply[2] if len(reply) > 2 else None
        if kind == "ok":
            rows = [tuple(normalize_cell(c) for c in row) for row in extra]
            den = Denotation(payload, rows, ordered=has_top_level_order_by(sql))
            return ExecutionOutcome("success", denotation=den, wall_time=wall)
        if kind == "timeout":
            return ExecutionOutcome("timeout", wall_time=wall, limit=limit)
        return ExecutionOutcome("error", message=payload, wall_time=wall)

    def close(self) -> None:
        for w in self._workers:
            w.stop()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Denotation comparison
# ---------------------------------------------------------------------------


def _cell_sort_key(cell):
    if cell is None:
        return (0, 0.0, "")
    if isinstance(cell, int):
        return (1, float(cell), "")
    if isinstance(cell, float):
        # rounded to 10 significant digits, so that cells `compare` treats as
        # equal sort alike on both sides
        return (1, float(f"{cell:.10g}"), "")
    return (2, 0.0, str(cell))


def _row_sort_key(row: tuple):
    return tuple(_cell_sort_key(c) for c in row)


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-9)
    return a == b


def compare(a: Denotation, b: Denotation) -> bool:
    """Denotation equality: multiset of rows, or row sequence when either
    side is ordered; numeric cells within relative tolerance 1e-6."""
    if a.column_count != b.column_count or len(a.rows) != len(b.rows):
        return False
    rows_a, rows_b = a.rows, b.rows
    if not (a.ordered or b.ordered):
        rows_a = sorted(rows_a, key=_row_sort_key)
        rows_b = sorted(rows_b, key=_row_sort_key)
    return all(
        _cells_equal(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb)
    )


def matches_gold(
    executor: QueryExecutor,
    sql: str,
    gold_sql: str,
    tests: list[tuple[DatabaseInstance, Denotation | None]],
    time_limit: float | None,
) -> bool:
    """The candidate's denotation matches gold on every test database.

    `tests` pairs each database with its gold denotation; a None gold is
    computed by running `gold_sql`, only once the candidate has succeeded on
    that database. Any error or timeout fails; no tests pass."""
    for db, gold in tests:
        outcome = executor.execute(sql, db, time_limit)
        if not outcome.ok:
            return False
        if gold is None:  # stays None when gold errs or times out
            gold = executor.execute(gold_sql, db, time_limit).denotation
        if gold is None or not compare(outcome.denotation, gold):
            return False
    return True


def is_empty_output(
    d: Denotation, gold_ast: QueryAst, count_one_as_empty: bool = False
) -> bool:
    """Empty denotation, or all-aggregate select returning only zeros/NULLs
    (the degenerate output of aggregates over an empty relation)."""
    if not d.rows:
        return True
    select = leftmost_select(gold_ast).select
    if not all(e.agg != "none" for e in select):
        return False
    empty_values = {0, 0.0, None}
    if count_one_as_empty:
        counts = [i for i, e in enumerate(select) if e.agg == "count"]
    else:
        counts = []
    for row in d.rows:
        for i, cell in enumerate(row):
            if cell in empty_values:
                continue
            if i in counts and cell == 1:
                continue
            return False
    return True
