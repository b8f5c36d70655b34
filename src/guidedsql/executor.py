"""Query execution against SQLite instances with timeouts and crash isolation.

Queries run inside a worker subprocess so that engine crashes or runaway
queries never take down the evaluation run; both conditions come back as
in-band outcomes. Every request is one run of `gold_match`: gold runs on
each test database that lacks its denotation and is reported once, then
candidate queries are checked against gold there. A database travels as the
path of its file, or as its rows when it has none, and the worker then
builds it in memory. Execution results are normalized into Denotations, the
unit of semantic comparison.

The worker remembers outcomes (`memoized`): each file connection it keeps
open has a memo from `(sql, time limit)` to the outcome of that query's last
run there, which serves every later run of the worker, gold or candidate,
in any request. A memo keeps successes and errors; never a timeout, a crash
(the worker dies with it), a database that did not open, a run on a
database built from shipped rows, or a run that reached a function that can
answer otherwise on another run (`_VOLATILE`), in the query or through a
view. Volatility comes from the connection's authorizer, which SQLite tells
each function a statement calls when it prepares it; file connections cache
no prepared statement, so every run is prepared and reported. A memo goes
with its connection: when the worker reopens a file replaced since it was
opened (a new inode, mtime or size), and when it drops its open files, past
64 of them or past `_MEMO_CELLS` remembered cells, before a request resolves
its databases. So its entries are exactly as fresh as that file check: a
file rewritten in place with the same inode, mtime and size would still be
answered from it.
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

# SQLite's functions whose result can differ between two runs of one query
# on one file (random numbers, connection state, the clock for 'now'), and
# the test functions; a run that reaches one is never remembered.
_VOLATILE = frozenset({
    "random", "randomblob", "changes", "total_changes", "last_insert_rowid",
    "date", "time", "datetime", "julianday", "unixepoch", "strftime", "timediff",
    "current_date", "current_time", "current_timestamp", "sleep_now", "crash_now",
})
# The cells (one per remembered outcome, plus its denotation's) the worker's
# memos may hold; past it, the worker drops its open files and their memos.
_MEMO_CELLS = 100_000


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
    """Success(denotation), Error(message) or Timeout; never raised."""

    status: str  # "success" | "error" | "timeout"
    denotation: Denotation | None = None
    message: str | None = None
    wall_time: float = 0.0  # set by `QueryExecutor.execute`

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
    """A concrete database: schema plus typed rows per table. One loaded
    from a file (`from_sqlite`) reads its rows on the first use of
    `tables`."""

    schema: Schema
    tables: dict[str, list[tuple]]
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
    def from_sqlite(cls, path: str | Path, schema: Schema) -> "DatabaseInstance":
        """The database in the SQLite file at `path`. Load reads no rows: it
        checks that the file is an SQLite database with every table and
        column of `schema`, and raises naming the path where it is not."""
        inst = cls(schema, {}, _path=Path(path))
        inst._read(check=True)
        del inst.tables  # read on first use, by __getattr__
        return inst

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: the `tables` of
        # a loaded instance before their first use
        if name != "tables" or self._path is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.tables = self._read()
        return self.tables

    def __getstate__(self) -> dict:
        # a pickled instance carries its rows, so unpickling needs no file
        return {**vars(self), "tables": self.tables}

    def _read(self, check: bool = False) -> dict[str, list[tuple]]:
        """Each table's rows in the file at `_path`; with `check`, none, as
        a check that every table of the schema is there to read."""
        path = self._path
        if not path.is_file():  # sqlite3 would not say which file
            raise FileNotFoundError(f"no database file at {path}")
        con = sqlite3.connect(_read_only_uri(path), uri=True)
        con.text_factory = lambda b: b.decode("utf-8", "replace")
        try:
            tables = {}
            for table in self.schema.tables:
                cols = ", ".join(f'"{c}"' for c, _ in table.columns)
                cur = con.execute(f'SELECT {cols} FROM "{table.name}"'
                                  + (" LIMIT 0" if check else ""))
                tables[table.name] = [
                    tuple(normalize_cell(c) for c in row) for row in cur.fetchall()
                ]
        except sqlite3.DatabaseError as exc:  # not a database, or not of this schema
            raise type(exc)(f"{path}: {exc}") from None
        finally:
            con.close()
        return tables

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


# The authorizer actions a query may take. Any other (a write, a PRAGMA,
# ATTACH, VACUUM INTO) fails its statement, so no request writes a file or
# changes what a later query of the request reads.
_READ_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                           sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})


class OutcomeMemo(dict):
    """One file connection's memo: `(sql, time limit)` -> the outcome of
    that query's last run there, and the cells it holds."""

    cells = 0


def memoized(run: Callable[[str, object, float], ExecutionOutcome],
             memos: dict[object, OutcomeMemo], volatile: set[str]
             ) -> Callable[[str, object, float], ExecutionOutcome]:
    """`run(sql, db, limit)`, except that a database with a memo in `memos`
    answers a query that ran there before at the same limit with the outcome
    of that run. Successes and errors are remembered; a timeout runs again
    each time, and so does a run that reached a `_VOLATILE` function: `run`
    adds each one it reaches to `volatile`, which is emptied before it."""

    def remembered(sql: str, db, limit: float) -> ExecutionOutcome:
        memo = memos.get(db)
        if memo is None:
            return run(sql, db, limit)
        key = (sql, limit)
        outcome = memo.get(key)
        if outcome is None:
            volatile.clear()
            outcome = run(sql, db, limit)
            if outcome.status != "timeout" and not volatile:
                memo[key] = outcome
                found = outcome.denotation
                memo.cells += 1 + (found.column_count * len(found.rows) if found else 0)
        return outcome

    return remembered


def _worker_main(pipe, progress, enable_test_functions: bool) -> None:
    """Serve requests `(sqls, gold_sql, tests, stop, limit)` until the pipe
    closes. A test database is a file path, opened read-only and kept open
    with its memo (`memoized`), or a `DatabaseInstance`, built read-only in
    `:memory:` for the request; each is resolved once per request, and every
    connection admits only reads (`_READ_ACTIONS`).
    `gold_match`'s reports (the golds it ran, then failing candidates) go down
    the pipe as they happen, then its result as a 1-tuple. `progress` holds
    the index of the candidate being checked (-1 until the first is pulled,
    while golds run) and the start time of the latest query, which the parent
    reads to catch a worker that hangs or dies."""
    # db path -> ((inode, mtime, size) when opened, connection)
    connections: dict[str, tuple[tuple, sqlite3.Connection]] = {}
    memos: dict[sqlite3.Connection, OutcomeMemo] = {}  # one per file connection
    volatile: set[str] = set()  # the _VOLATILE functions the last run reached
    deadline = math.inf  # of the running query, on whichever connection

    def authorize(action: int, arg1, arg2, *_) -> int:
        # a SQLITE_FUNCTION action's arg2 is the function's name
        if action == sqlite3.SQLITE_FUNCTION and arg2.lower() in _VOLATILE:
            volatile.add(arg2.lower())
        return sqlite3.SQLITE_OK if action in _READ_ACTIONS else sqlite3.SQLITE_DENY

    def prepare(con: sqlite3.Connection) -> sqlite3.Connection:
        con.text_factory = lambda b: b.decode("utf-8", "replace")
        con.set_authorizer(authorize)
        con.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 2000)
        if enable_test_functions:
            con.create_function("crash_now", 0, lambda: os._exit(13))
            con.create_function("sleep_now", 1, time.sleep)
        return con

    def connect(db_path: str) -> sqlite3.Connection | Exception:
        """The cached connection to the file, or the error opening it."""
        try:
            st = os.stat(db_path)
            version = (st.st_ino, st.st_mtime_ns, st.st_size)
        except OSError:
            version = None  # sqlite3 reports the missing file
        except ValueError as exc:  # a NUL in the path
            return exc
        cached = connections.get(db_path)
        if cached is not None:
            if cached[0] == version:
                return cached[1]
            cached[1].close()  # the file was replaced since it was opened
            del connections[db_path], memos[cached[1]]
        try:
            # no statement cache: a cached statement is not prepared again,
            # and only a prepare tells the authorizer what a query calls
            con = prepare(sqlite3.connect(_read_only_uri(db_path), uri=True,
                                          cached_statements=0))
        except sqlite3.Error as exc:
            return exc
        connections[db_path] = (version, con)
        memos[con] = OutcomeMemo()
        return con

    def build(db: DatabaseInstance) -> sqlite3.Connection:
        con = sqlite3.connect(":memory:")
        db._fill(con)
        con.execute("PRAGMA query_only = ON")
        return prepare(con)

    def run(sql: str, con: sqlite3.Connection | Exception,
            limit: float) -> ExecutionOutcome:
        nonlocal deadline
        if isinstance(con, Exception):  # the database did not open
            return ExecutionOutcome("error", message=str(con))
        deadline = progress[1] + limit
        try:
            cur = con.execute(sql)
            rows = cur.fetchall()
        except sqlite3.OperationalError as exc:
            if "interrupted" in str(exc).lower():
                return ExecutionOutcome("timeout")
            return ExecutionOutcome("error", message=str(exc))
        except Exception as exc:  # engine errors stay in-band
            return ExecutionOutcome("error", message=str(exc))
        rows = [tuple(normalize_cell(c) for c in row) for row in rows]
        denotation = Denotation(len(cur.description) if cur.description else 0, rows,
                                ordered=has_top_level_order_by(sql))
        return ExecutionOutcome("success", denotation=denotation)

    remembered = memoized(run, memos, volatile)

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
        sqls, gold_sql, tests, stop, limit = msg
        # trimmed before the request resolves its databases, never during it
        if len(connections) > 64 or sum(m.cells for m in memos.values()) > _MEMO_CELLS:
            for _, old in connections.values():
                old.close()
            connections.clear()
            memos.clear()

        def timed(sql: str, con) -> ExecutionOutcome:
            progress[1] = time.monotonic()  # a query's start, run or remembered
            return remembered(sql, con, limit)

        with ExitStack() as built:
            tests = [(built.enter_context(closing(build(db)))
                      if isinstance(db, DatabaseInstance) else connect(db), gold)
                     for db, gold in tests]
            first = gold_match(timed, announced(sqls), gold_sql, tests, stop, pipe.send)
        pipe.send((first,))


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
                 stop: bool, time_limit: float | None
                 ) -> tuple[list[ExecutionOutcome | None], int | None, list[int]]:
        """The golds `gold_match` reported (None where it ran none), its
        result, and the candidates it reported failing. A gold that crashes
        the worker or hangs fails, and no candidate runs. A candidate that
        does so fails, and the ones after it go to a new worker, with the
        golds already reported, so no gold runs twice."""
        limit = self.time_limit if time_limit is None else time_limit
        if limit <= 0:
            raise ValueError("time limit must be positive")
        tests = [(_ship(db), gold) for db, gold in tests]
        golds, apart, done = [None] * len(tests), [], 0
        while True:
            msg = (sqls[done:], gold_sql, tests, stop, limit)
            # no query has started; -1 until the worker pulls a candidate, so a
            # worker lost before that was running a gold
            self._progress[0], self._progress[1] = -1, math.inf
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
                    golds = reply
                    tests = [(db, gold if ran is None else ran.denotation)
                             for (db, gold), ran in zip(tests, golds)]
                failure, reply = self._reply(limit)
            if failure is None:
                (first,) = reply
                return golds, None if first is None else done + first, apart
            if self._progress[0] < 0:
                lost = (ExecutionOutcome("timeout") if failure == "timeout"
                        else ExecutionOutcome("error", message="query worker crashed"))
                return [lost if gold is None else None for _, gold in tests], None, []
            hit = done + int(self._progress[0])
            if not stop:
                apart.append(hit)
            done = hit + 1
            if done == len(sqls):
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
        (outcome,), _, _ = self._request([], sql, [(db, None)], False, time_limit)
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
        database, or None: `gold_match` with `stop`, in one request, which
        runs the golds `tests` lacks before any candidate; none is sent when
        `sqls` is empty. A candidate that crashes the worker or hangs fails
        alone; a gold that does so fails the request."""
        if not sqls:
            return None
        return self._request(sqls, gold_sql, tests, True, time_limit)[1]

    def distinguish(
        self,
        db: DatabaseInstance,
        gold_sql: str,
        sqls: list[str],
        gold: Denotation | None = None,
        time_limit: float | None = None,
    ) -> tuple[Denotation | None, list[int]]:
        """Gold's denotation on `db` and the indices of the `sqls` whose
        denotation differs from it, in one request: gold runs first unless
        `gold` is given, then each query. A query that errs, times out or
        crashes the worker is told apart. A gold that fails gives (None, [])."""
        (found,), _, apart = self._request(sqls, gold_sql, [(db, gold)], False, time_limit)
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
    report: Callable[[object], None] = lambda event: None,
) -> int | None:
    """The one loop behind every executor request. With `stop`, the index
    of the first of `sqls` whose denotation matches gold on every test
    database, and None when none does; without it, every candidate runs and
    the result is None.

    `run(sql, db)` gives a query's outcome; any but a success fails the
    candidate. `tests` pairs each database with gold's denotation, or None:
    then `gold_sql` runs there before any candidate, and without it any
    successful run passes. `report` hears once of the golds it ran, a list
    with each one's outcome (else None), before any candidate; a gold that
    fails runs no candidate. Without `stop`, `report` also hears each failing
    candidate's index, so that a caller can resume after a crash."""
    golds = [run(gold_sql, db) if gold is None and gold_sql is not None else None
             for db, gold in tests]
    if any(ran is not None for ran in golds):
        report(golds)
        if any(not ran.ok for ran in golds if ran is not None):
            return None
    expected = [gold if ran is None else ran.denotation
                for (_, gold), ran in zip(tests, golds)]

    def passes(sql: str) -> bool:
        for (db, _), gold in zip(tests, expected):
            found = run(sql, db).denotation
            if found is None or gold is not None and not compare(found, gold):
                return False
        return True

    for i, sql in enumerate(sqls):
        if passes(sql):
            if stop:
                return i
        elif not stop:
            report(i)
    return None
