"""Query execution against SQLite instances with timeouts and crash isolation.

Queries run inside a worker subprocess so that engine crashes or runaway
queries never take down the evaluation run; both conditions come back as
in-band outcomes. Execution results are normalized into Denotations, the
unit of semantic comparison. Suite building ships a database's rows rather
than a file, and the worker builds it in memory.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import os
import sqlite3
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .parser import lex
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
    after_order = False  # the previous lexeme is ORDER outside parentheses
    for _, lexeme in lex(sql):
        if lexeme == "(":
            depth += 1
        elif lexeme == ")":
            depth -= 1
        elif after_order and lexeme.lower() == "by":
            return True
        elif depth == 0 and lexeme.lower() == "order":
            after_order = True
            continue
        after_order = False
    return False


# ---------------------------------------------------------------------------
# Database instances
# ---------------------------------------------------------------------------

_TEMP_DIR: tempfile.TemporaryDirectory | None = None
_TEMP_COUNT = 0


def _temp_db_path() -> Path:
    global _TEMP_DIR, _TEMP_COUNT
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
            # each transaction of `_fill` would sync the file; one fsync
            # after close makes it as durable, and the bytes are the same
            con.execute("PRAGMA synchronous = OFF")
            con.execute("PRAGMA journal_mode = MEMORY")
            self._fill(con)
        finally:
            con.close()
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        return path

    def _fill(self, con: sqlite3.Connection) -> None:
        """Create every table of the schema in an empty database and commit
        its rows."""
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
        """The SQLite file this instance was loaded from or saved to; else
        write a cached temp file and return its path."""
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
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(pipe, progress, enable_test_functions: bool) -> None:
    """Serve requests until the pipe closes: ("execute", db_path, sql,
    limit) and ("first", sqls, gold_sql, tests, limit) get one reply each;
    ("distinguish", db, gold_sql, gold, nonempty_for, sqls, limit) gets the
    stream `QueryExecutor.distinguish` reads. `progress` holds the index of
    the query being checked and the start time of the latest query, which
    the parent reads to catch a worker that hangs or dies."""
    # db path -> ((inode, mtime, size) when opened, connection)
    connections: dict[str, tuple[tuple, sqlite3.Connection]] = {}

    def prepare(con: sqlite3.Connection) -> sqlite3.Connection:
        con.text_factory = lambda b: b.decode("utf-8", "replace")
        if enable_test_functions:
            con.create_function("crash_now", 0, lambda: os._exit(13))
            con.create_function("sleep_now", 1, time.sleep)
        return con

    def connect(db_path: str) -> sqlite3.Connection:
        try:
            st = os.stat(db_path)
            version = (st.st_ino, st.st_mtime_ns, st.st_size)
        except OSError:
            version = None  # sqlite3 reports the missing file
        cached = connections.get(db_path)
        if cached is not None:
            if cached[0] == version:
                return cached[1]
            cached[1].close()  # the file was replaced since it was opened
            del connections[db_path]
        if len(connections) > 64:
            for _, old in connections.values():
                old.close()
            connections.clear()
        con = prepare(sqlite3.connect(f"file:{db_path}?mode=ro", uri=True))
        connections[db_path] = (version, con)
        return con

    def run(db: str | sqlite3.Connection, sql: str, limit: float) -> tuple:
        progress[1] = time.monotonic()
        try:
            con = connect(db) if isinstance(db, str) else db
            deadline = time.monotonic() + limit
            con.set_progress_handler(
                lambda: 1 if time.monotonic() > deadline else 0, 2000
            )
            cur = con.execute(sql)
            rows = cur.fetchall()
            return ("ok", len(cur.description) if cur.description else 0, rows)
        except sqlite3.OperationalError as exc:
            if "interrupted" in str(exc).lower():
                return ("timeout", limit, None)
            return ("error", str(exc), None)
        except Exception as exc:  # engine errors stay in-band
            return ("error", str(exc), None)

    def announced(sqls: list[str]):
        for i, sql in enumerate(sqls):
            progress[0] = i
            yield sql

    def distinguish(db, gold_sql, gold, nonempty_for, sqls, limit) -> None:
        con = sqlite3.connect(":memory:")
        try:
            db._fill(con)
            con.execute("PRAGMA query_only = ON")
            prepare(con)

            def denotation(sql: str) -> Denotation | None:
                kind, ncols, rows = run(con, sql, limit)
                return _denotation(sql, ncols, rows) if kind == "ok" else None

            if gold is None:
                gold = denotation(gold_sql)
                pipe.send(gold)
            if gold is None or (nonempty_for is not None and is_empty_output(gold, nonempty_for)):
                sqls = []  # the database is rejected
            for i, sql in enumerate(announced(sqls)):
                found = denotation(sql)
                if found is None or not compare(found, gold):
                    pipe.send(i)
        finally:
            con.close()
        pipe.send(None)

    while True:
        try:
            msg = pipe.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if msg is None:
            return
        if msg[0] == "execute":
            pipe.send(run(*msg[1:]))
            continue
        if msg[0] == "distinguish":
            distinguish(*msg[1:])
            continue
        _, sqls, gold_sql, tests, limit = msg

        def denotation(sql: str, db_path: str) -> Denotation | None:
            kind, ncols, rows = run(db_path, sql, limit)
            return _denotation(sql, ncols, rows) if kind == "ok" else None

        pipe.send(first_match(denotation, announced(sqls), gold_sql, tests))


class QueryExecutor:
    """One isolated worker process that runs queries one at a time; a worker
    that times out, crashes or breaks its pipe is replaced."""

    def __init__(
        self,
        time_limit: float = 30.0,
        workers: int = 1,
        enable_test_functions: bool = False,
    ):
        if workers != 1:
            raise ValueError(f"QueryExecutor runs exactly one worker, not {workers}")
        self.time_limit = time_limit
        self._ctx = mp.get_context("fork")
        self._enable_test_functions = enable_test_functions
        # [candidate index, start time of the latest query], written by the
        # worker into memory that the fork shares
        self._progress = memoryview(mmap.mmap(-1, 16)).cast("d")
        self._spawn()

    def _spawn(self) -> None:
        self._pipe, child = self._ctx.Pipe()
        self._process = self._ctx.Process(
            target=_worker_main,
            args=(child, self._progress, self._enable_test_functions),
            daemon=True,
        )
        self._process.start()
        child.close()

    def _respawn(self) -> None:
        try:
            self._process.kill()
            self._process.join(timeout=5)
        except Exception:
            pass
        self._pipe.close()
        self._spawn()

    def _limit(self, time_limit: float | None) -> float:
        limit = self.time_limit if time_limit is None else time_limit
        if limit <= 0:
            raise ValueError("time limit must be positive")
        return limit

    def _request(self, msg: tuple, limit: float) -> tuple[str | None, object]:
        """Send msg and return the first reply as `_reply` gives it."""
        self._progress[0] = 0
        self._progress[1] = time.monotonic()
        try:
            self._pipe.send(msg)
        except (BrokenPipeError, OSError):
            self._respawn()
            self._pipe.send(msg)
        return self._reply(limit)

    def _reply(self, limit: float) -> tuple[str | None, object]:
        """(None, the worker's next reply). A worker that starts no new query
        within limit + _GRACE of its latest one (or of the request) and has
        sent nothing is killed, giving ("timeout", None); one that dies gives
        ("crash", None). Either way a new worker replaces it."""
        while True:
            wait = self._progress[1] + limit + _GRACE - time.monotonic()
            if self._pipe.poll(max(wait, 0)):
                break
            if wait <= 0:
                self._respawn()
                return "timeout", None
        try:
            return None, self._pipe.recv()
        except (EOFError, OSError):
            self._respawn()
            return "crash", None

    def execute(
        self,
        sql: str,
        db: DatabaseInstance | str | Path,
        time_limit: float | None = None,
    ) -> ExecutionOutcome:
        limit = self._limit(time_limit)
        start = time.monotonic()
        failure, reply = self._request(("execute", _db_path(db), sql, limit), limit)
        wall = time.monotonic() - start
        if failure == "timeout":
            return ExecutionOutcome("timeout", wall_time=wall, limit=limit)
        if failure == "crash":
            return ExecutionOutcome("error", message="query worker crashed", wall_time=wall)
        kind, payload, rows = reply
        if kind == "ok":
            den = _denotation(sql, payload, rows)
            return ExecutionOutcome("success", denotation=den, wall_time=wall)
        if kind == "timeout":
            return ExecutionOutcome("timeout", wall_time=wall, limit=limit)
        return ExecutionOutcome("error", message=payload, wall_time=wall)

    def first_passing(
        self,
        sqls: list[str],
        gold_sql: str | None,
        tests: list[tuple[DatabaseInstance | str | Path, Denotation | None]],
        time_limit: float | None = None,
    ) -> int | None:
        """`first_match` run inside the worker, in one request: the index of
        the first of `sqls` that matches gold on every test database, or None.
        A crash or timeout fails only the candidate it hit; the candidates
        after it go to the new worker."""
        limit = self._limit(time_limit)
        tests = [(_db_path(db), gold) for db, gold in tests]
        done = 0
        while done < len(sqls):
            failure, reply = self._request(
                ("first", sqls[done:], gold_sql, tests, limit), limit
            )
            if failure is None:
                return None if reply is None else done + reply
            done += int(self._progress[0]) + 1
        return None

    def distinguish(
        self,
        db: DatabaseInstance,
        gold_sql: str,
        sqls: list[str],
        gold: Denotation | None = None,
        nonempty_for: QueryAst | None = None,
        time_limit: float | None = None,
    ) -> tuple[Denotation | None, list[int]]:
        """Gold's denotation on `db` and the indices of the `sqls` whose
        denotation differs from it, in one request: the worker builds `db` in
        memory from its rows, read-only once filled, and runs gold there
        unless `gold` is given, then each query. A query that errs, times out
        or crashes the worker is told apart. A gold that fails gives
        (None, []). With `nonempty_for`, gold's AST, a gold output that
        `is_empty_output` calls empty runs none of `sqls`. After a crash or a
        kill at query i, the queries after it go to the new worker with
        gold's denotation."""
        limit = self._limit(time_limit)
        apart: list[int] = []
        done = 0
        while True:
            ask_gold = gold is None
            failure, reply = self._request(
                ("distinguish", db, gold_sql, gold, nonempty_for, sqls[done:], limit), limit
            )
            if ask_gold and failure is None:  # the first reply is gold's denotation
                gold = reply
                failure, reply = self._reply(limit)
            while failure is None and reply is not None:  # None ends the replies
                apart.append(done + reply)
                failure, reply = self._reply(limit)
            if gold is None:
                return None, []
            if failure is not None:
                apart.append(done + int(self._progress[0]))
                done = apart[-1] + 1
            if failure is None or done == len(sqls):
                return gold, apart

    def close(self) -> None:
        try:
            self._pipe.send(None)
        except Exception:
            pass
        self._process.join(timeout=2)
        if self._process.is_alive():
            self._process.kill()
        self._pipe.close()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _denotation(sql: str, column_count: int, rows: list[tuple]) -> Denotation:
    rows = [tuple(normalize_cell(c) for c in row) for row in rows]
    return Denotation(column_count, rows, ordered=has_top_level_order_by(sql))


def _db_path(db: DatabaseInstance | str | Path) -> str:
    return str(db.materialize() if isinstance(db, DatabaseInstance) else Path(db))


# ---------------------------------------------------------------------------
# Denotation comparison
# ---------------------------------------------------------------------------


_NULL, _NUMBER = (0, ""), (1, "")


def _row_key(row: tuple) -> tuple[tuple, tuple]:
    """The row split into its exact part (each text cell, and where the
    nulls and numbers are) and its numbers, which match within tolerance."""
    shape, numbers = [], []
    for cell in row:
        if cell is None:
            shape.append(_NULL)
        elif isinstance(cell, (int, float)):
            shape.append(_NUMBER)
            numbers.append(float(cell))
        else:
            shape.append((2, str(cell)))
    return tuple(shape), tuple(numbers)


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-6, abs_tol=1e-9)


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _close(float(a), float(b))
    return a == b


def _pair_off(nums_a: list[tuple], nums_b: list[tuple]) -> bool:
    """Whether the number rows pair off one to one, each pair's numbers
    within tolerance: a bipartite matching by augmenting paths."""
    partners = []
    for nums in nums_a:
        near = [j for j, other in enumerate(nums_b) if all(map(_close, nums, other))]
        if not near:
            return False
        partners.append(near)
    owner: list[int | None] = [None] * len(nums_b)  # the row of a each row of b pairs with
    for root in range(len(nums_a)):
        seen: set[int] = set()
        stack, via = [(root, iter(partners[root]))], []  # via[k]: the b row level k took
        while stack:
            i, rest = stack[-1]
            j = next((j for j in rest if j not in seen), None)
            if j is None:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen.add(j)
            via.append(j)
            if owner[j] is None:  # an augmenting path: shift each pair along it
                for (row_a, _), row_b in zip(stack, via):
                    owner[row_b] = row_a
                break
            stack.append((owner[j], iter(partners[owner[j]])))
        else:
            return False
    return True


def compare(a: Denotation, b: Denotation) -> bool:
    """Denotation equality: multiset of rows, or row sequence when either
    side is ordered; numeric cells within relative tolerance 1e-6.

    Unordered rows are sorted on their exact part first, so a multiset that
    differs there fails in one pass; where the sorted order leaves numbers
    unpaired within tolerance, the rows of that exact part are matched."""
    if a.column_count != b.column_count or len(a.rows) != len(b.rows):
        return False
    if a.ordered or b.ordered:
        return all(_cells_equal(x, y)
                   for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))
    keys_a = sorted(map(_row_key, a.rows))
    keys_b = sorted(map(_row_key, b.rows))
    unpaired = set()
    for (shape_a, nums_a), (shape_b, nums_b) in zip(keys_a, keys_b):
        if shape_a != shape_b:
            return False
        if nums_a != nums_b and not all(map(_close, nums_a, nums_b)):
            unpaired.add(shape_a)
    return all(_pair_off([n for s, n in keys_a if s == shape],
                         [n for s, n in keys_b if s == shape]) for shape in unpaired)


def first_match(
    run: Callable[[str, object], Denotation | None],
    sqls: Iterable[str],
    gold_sql: str | None,
    tests: list[tuple[object, Denotation | None]],
) -> int | None:
    """Index of the first of `sqls` whose denotation matches gold on every
    test database, trying them in order; None when none does.

    `run(sql, db)` gives a query's denotation, or None on an error or
    timeout, which fails the candidate. `tests` pairs each database with its
    gold denotation; a None gold is computed by running `gold_sql` once a
    candidate has succeeded on that database, at most once per call, and
    with `gold_sql` None any successful run passes there. With no tests the
    first candidate passes."""
    golds = [gold for _, gold in tests]
    missing = [gold is None for gold in golds]

    def passes(sql: str, j: int) -> bool:
        db = tests[j][0]
        denotation = run(sql, db)
        if denotation is None:
            return False
        if missing[j]:
            if gold_sql is None:
                return True
            missing[j] = False  # the gold stays None when it errs or times out
            golds[j] = run(gold_sql, db)
        return golds[j] is not None and compare(denotation, golds[j])

    return next((i for i, sql in enumerate(sqls)
                 if all(passes(sql, j) for j in range(len(tests)))), None)


def matches_gold(
    executor: QueryExecutor,
    sql: str,
    gold_sql: str,
    tests: list[tuple[DatabaseInstance, Denotation | None]],
    time_limit: float | None,
) -> bool:
    """The candidate's denotation matches gold on every test database: the
    one-candidate case of `QueryExecutor.first_passing`."""
    return executor.first_passing([sql], gold_sql, tests, time_limit) == 0


def is_empty_output(d: Denotation, gold_ast: QueryAst) -> bool:
    """Empty denotation, or all-aggregate select returning only zeros/NULLs
    (the degenerate output of aggregates over an empty relation)."""
    if not d.rows:
        return True
    select = leftmost_select(gold_ast).select
    if not all(e.agg != "none" for e in select):
        return False
    return all(cell in (0, 0.0, None) for row in d.rows for cell in row)
