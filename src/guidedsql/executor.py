"""Query execution against SQLite instances with timeouts and crash isolation.

Queries run inside a worker subprocess so that engine crashes or runaway
queries never take down the evaluation run; both conditions come back as
in-band outcomes. Every request is one run of `gold_match`: candidate
queries checked against gold on test databases. A database travels as the
path of its file, or as its rows when it has none, and the worker then
builds it in memory. Execution results are normalized into Denotations,
the unit of semantic comparison.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import os
import sqlite3
import time
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable
from urllib.parse import quote

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


def _read_only_uri(path: str | Path) -> str:
    # percent-encoded, so that a `#`, `?` or `%` stays part of the file name
    return f"file:{quote(str(path))}?mode=ro"


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
        con = sqlite3.connect(_read_only_uri(path), uri=True)
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

    def materialize(self) -> Path | None:
        """The SQLite file this instance was loaded from or saved to, or None
        when it has none; the executor then ships its rows. The name stays
        because `benchmarks/tracing.py` wraps it to learn which file a query
        read; renaming it waits until the tracer reads the library's own
        counters (ROADMAP item 4)."""
        if self._path is None or not self._path.exists():
            return None
        return self._path

    def size_bytes(self) -> int:
        """Bytes of the saved file, else of the file `to_sqlite` would write."""
        path = self.materialize()
        if path is not None:
            return path.stat().st_size
        with closing(sqlite3.connect(":memory:")) as con:
            self._fill(con)
            return len(con.serialize())

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
    """Serve requests until the pipe closes: `gold_match`'s arguments and the
    time limit. A test database is a file path, opened read-only and kept
    open, or a `DatabaseInstance`, built read-only in `:memory:` for the
    request. `gold_match`'s reports go down the pipe as they happen, then its
    result. `progress` holds the index of the candidate being checked and the
    start time of the latest query, which the parent reads to catch a worker
    that hangs or dies."""
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
        con = prepare(sqlite3.connect(_read_only_uri(db_path), uri=True))
        connections[db_path] = (version, con)
        return con

    def build(db: DatabaseInstance) -> sqlite3.Connection:
        con = sqlite3.connect(":memory:")
        db._fill(con)
        con.execute("PRAGMA query_only = ON")
        return prepare(con)

    def run(sql: str, db: str | sqlite3.Connection, limit: float) -> ExecutionOutcome:
        progress[1] = time.monotonic()
        try:
            con = connect(db) if isinstance(db, str) else db
            deadline = time.monotonic() + limit
            con.set_progress_handler(
                lambda: 1 if time.monotonic() > deadline else 0, 2000
            )
            cur = con.execute(sql)
            rows = cur.fetchall()
        except sqlite3.OperationalError as exc:
            if "interrupted" in str(exc).lower():
                return ExecutionOutcome("timeout", limit=limit)
            return ExecutionOutcome("error", message=str(exc))
        except Exception as exc:  # engine errors stay in-band
            return ExecutionOutcome("error", message=str(exc))
        rows = [tuple(normalize_cell(c) for c in row) for row in rows]
        denotation = Denotation(len(cur.description) if cur.description else 0, rows,
                                ordered=has_top_level_order_by(sql))
        return ExecutionOutcome("success", denotation=denotation)

    def announced(sqls: list[str]):
        for i, sql in enumerate(sqls):
            progress[0] = i
            yield sql

    while True:
        try:
            msg = pipe.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if msg is None:
            return
        sqls, gold_sql, tests, stop, nonempty_for, limit = msg
        with ExitStack() as built:
            tests = [(built.enter_context(closing(build(db)))
                      if isinstance(db, DatabaseInstance) else db, gold) for db, gold in tests]
            result = gold_match(lambda sql, db: run(sql, db, limit), announced(sqls),
                                gold_sql, tests, stop, nonempty_for, pipe.send)
        pipe.send(result)


class QueryExecutor:
    """One isolated worker process that runs queries one at a time; a worker
    that times out, crashes or breaks its pipe is replaced. Each request is
    one run of `gold_match` in the worker."""

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

    def _reply(self, limit: float) -> tuple[str | None, object]:
        """(None, the worker's next reply). A worker that has sent nothing
        within limit + _GRACE of the start of its latest query is killed,
        giving ("timeout", None); one that dies gives ("crash", None). Either
        way a new worker replaces it. The time before a request's first query,
        such as building a database from its rows, does not count."""
        while True:
            wait = self._progress[1] + limit + _GRACE - time.monotonic()
            if self._pipe.poll(min(max(wait, 0), limit + _GRACE)):
                break
            if wait <= 0:
                self._respawn()
                return "timeout", None
        try:
            return None, self._pipe.recv()
        except (EOFError, OSError):
            self._respawn()
            return "crash", None

    def _request(self, sqls: list[str], gold_sql: str | None, tests: list[tuple],
                 stop: bool, nonempty_for: QueryAst | None, time_limit: float | None
                 ) -> tuple[list[ExecutionOutcome | None], int | None, list[int]]:
        """`gold_match`'s (golds, first) from the worker, and the candidates
        it reported failing. A candidate that crashes the worker or hangs
        fails, and the ones after it go to a new worker with the golds
        reported; a gold that does so fails, and no candidate runs."""
        limit = self.time_limit if time_limit is None else time_limit
        if limit <= 0:
            raise ValueError("time limit must be positive")
        tests = [(_ship(db), gold) for db, gold in tests]
        golds, apart, done = [None] * len(tests), [], 0
        # without stop, the golds not given run before any candidate
        eager = not stop and gold_sql is not None and any(g is None for _, g in tests)
        while done < len(sqls) or eager:
            msg = (sqls[done:], gold_sql, tests, stop, nonempty_for, limit)
            self._progress[0], self._progress[1] = 0, math.inf  # no query has started
            try:
                self._pipe.send(msg)
            except (BrokenPipeError, OSError):
                self._respawn()
                self._pipe.send(msg)
            failure, reply = self._reply(limit)
            while failure is None and not isinstance(reply, tuple):  # a report
                if isinstance(reply, int):
                    apart.append(done + reply)
                else:  # the golds, before the first candidate
                    golds, eager = reply, False
                    tests = [(db, gold if ran is None else ran.denotation)
                             for (db, gold), ran in zip(tests, golds)]
                failure, reply = self._reply(limit)
            if failure is None:
                found, first = reply
                golds = [new or old for new, old in zip(found, golds)]
                return golds, None if first is None else done + first, apart
            if eager:
                lost = (ExecutionOutcome("timeout", limit=limit) if failure == "timeout"
                        else ExecutionOutcome("error", message="query worker crashed"))
                return [lost if gold is None else None for _, gold in tests], None, []
            hit = done + int(self._progress[0])
            if not stop:
                apart.append(hit)
            done = hit + 1
        return golds, None, apart

    def execute(
        self,
        sql: str,
        db: DatabaseInstance | str | Path,
        time_limit: float | None = None,
    ) -> ExecutionOutcome:
        """`sql`'s outcome on `db`: a request with `sql` as gold and no
        candidates."""
        start = time.monotonic()
        (outcome,), _, _ = self._request([], sql, [(db, None)], False, None, time_limit)
        outcome.wall_time = time.monotonic() - start
        return outcome

    def first_passing(
        self,
        sqls: list[str],
        gold_sql: str | None,
        tests: list[tuple[DatabaseInstance | str | Path, Denotation | None]],
        time_limit: float | None = None,
    ) -> int | None:
        """The index of the first of `sqls` that matches gold on every test
        database, or None: `gold_match` with `stop`, in one request. A crash
        or timeout fails only the candidate it hit."""
        return self._request(sqls, gold_sql, tests, True, None, time_limit)[1]

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
        denotation differs from it, in one request: gold runs first unless
        `gold` is given, then each query. A query that errs, times out or
        crashes the worker is told apart. A gold that fails gives (None, []).
        With `nonempty_for`, gold's AST, a gold output that `is_empty_output`
        calls empty runs none of `sqls`."""
        (found,), _, apart = self._request(
            sqls, gold_sql, [(db, gold)], False, nonempty_for, time_limit
        )
        if found is not None:
            gold = found.denotation
        return (None, []) if gold is None else (gold, apart)

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


def _ship(db: DatabaseInstance | str | Path) -> DatabaseInstance | str:
    """A test database as a request carries it: its file's path, or the
    instance itself when it has no file, for the worker to build."""
    if not isinstance(db, DatabaseInstance):
        return str(Path(db))
    path = db.materialize()
    return db if path is None else str(path)


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


def gold_match(
    run: Callable[[str, object], ExecutionOutcome],
    sqls: Iterable[str],
    gold_sql: str | None,
    tests: list[tuple[object, Denotation | None]],
    stop: bool = True,
    nonempty_for: QueryAst | None = None,
    report: Callable[[object], None] = lambda event: None,
) -> tuple[list[ExecutionOutcome | None], int | None]:
    """The one loop behind every executor request: (golds, first), the
    outcome of each gold run before the candidates (else None) and the index
    of the first of `sqls` whose denotation matches gold on every test
    database (None when none does).

    `run(sql, db)` gives a query's outcome; any but a success fails the
    candidate. `tests` pairs each database with gold's denotation, or None:
    then `gold_sql` runs there, and without it any successful run passes.
    With `stop`, the loop ends at the first candidate that passes, and a
    missing gold runs once a candidate has succeeded there, at most once per
    call. Without it, missing golds run first, then every candidate, and
    `report` hears of the golds (before the first candidate) and of each
    failing candidate's index, so that a caller can resume after a crash. A
    gold that fails, or with `nonempty_for` (gold's AST) a gold output that
    `is_empty_output` calls empty, then runs no candidate."""
    expected = [gold for _, gold in tests]
    missing = [gold is None for gold in expected]

    def run_gold(j: int) -> ExecutionOutcome:
        missing[j] = False  # the expected denotation stays None when gold fails
        outcome = run(gold_sql, tests[j][0])
        expected[j] = outcome.denotation
        return outcome

    def passes(sql: str, j: int) -> bool:
        found = run(sql, tests[j][0]).denotation
        if found is None:
            return False
        if missing[j]:
            if gold_sql is None:
                return True
            run_gold(j)
        return expected[j] is not None and compare(found, expected[j])

    golds: list[ExecutionOutcome | None] = [None] * len(tests)
    if not stop:
        if gold_sql is not None:
            golds = [run_gold(j) if missing[j] else None for j in range(len(tests))]
        empty = nonempty_for is not None and any(
            d is not None and is_empty_output(d, nonempty_for) for d in expected)
        if empty or any(g is not None and not g.ok for g in golds):
            return golds, None
    first = None
    for i, sql in enumerate(sqls):
        if i == 0 and any(g is not None for g in golds):
            report(golds)
        if not all(passes(sql, j) for j in range(len(tests))):
            if not stop:
                report(i)
        elif stop:
            return golds, i
        elif first is None:
            first = i
    return golds, first


def is_empty_output(d: Denotation, gold_ast: QueryAst) -> bool:
    """Empty denotation, or all-aggregate select returning only zeros/NULLs
    (the degenerate output of aggregates over an empty relation)."""
    if not d.rows:
        return True
    select = leftmost_select(gold_ast).select
    if not all(e.agg != "none" for e in select):
        return False
    return all(cell in (0, 0.0, None) for row in d.rows for cell in row)
