"""Database schemas: typed tables, keys, and Spider-format ingestion."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

COLUMN_TYPES = ("text", "integer", "real", "boolean", "time")

# Spider tables.json uses a few extra names for the same things.
_TYPE_ALIASES = {
    "number": "real",
    "int": "integer",
    "float": "real",
    "double": "real",
    "datetime": "time",
    "date": "time",
    "others": "text",
    "varchar": "text",
    "bool": "boolean",
}


class SchemaError(ValueError):
    """Raised when a schema definition violates its own invariants."""


@dataclass(frozen=True)
class ColumnId:
    """Fully-qualified column reference, canonical lower-case."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass
class Table:
    name: str
    columns: list[tuple[str, str]]  # (column name, type)

    def column_names(self) -> list[str]:
        return [c for c, _ in self.columns]

    def column_type(self, column: str) -> str:
        for name, ctype in self.columns:
            if name == column:
                return ctype
        raise KeyError(column)


@dataclass
class Schema:
    """Tables, column types and key constraints of one database."""

    tables: list[Table]
    primary_keys: list[ColumnId] = field(default_factory=list)
    foreign_keys: list[tuple[ColumnId, ColumnId]] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen_tables: set[str] = set()
        for table in self.tables:
            if table.name in seen_tables:
                raise SchemaError(f"duplicate table name: {table.name}")
            seen_tables.add(table.name)
            seen_cols: set[str] = set()
            for col, ctype in table.columns:
                if col in seen_cols:
                    raise SchemaError(f"duplicate column {table.name}.{col}")
                seen_cols.add(col)
                if ctype not in COLUMN_TYPES:
                    raise SchemaError(f"unknown column type {ctype!r} for {table.name}.{col}")
        for ref in self.primary_keys:
            self._require_column(ref, "primary key")
        for child, parent in self.foreign_keys:
            self._require_column(child, "foreign key child")
            self._require_column(parent, "foreign key parent")

    def _require_column(self, ref: ColumnId, what: str) -> None:
        if not self.has_column(ref.table, ref.column):
            raise SchemaError(f"{what} names unknown column {ref}")

    # -- lookups (all case-insensitive; canonical storage is lower-case) --

    def table(self, name: str) -> Table:
        name = name.lower()
        for table in self.tables:
            if table.name == name:
                return table
        raise KeyError(name)

    def has_table(self, name: str) -> bool:
        return any(t.name == name.lower() for t in self.tables)

    def has_column(self, table: str, column: str) -> bool:
        try:
            self.table(table).column_type(column.lower())
        except KeyError:
            return False
        return True

    def column_type(self, ref: ColumnId) -> str:
        return self.table(ref.table).column_type(ref.column)

    def is_primary_key(self, ref: ColumnId) -> bool:
        return ref in self.primary_keys

    def columns_of_type(self, table: str, ctype: str) -> list[str]:
        return [c for c, t in self.table(table).columns if t == ctype]

    def parent_of(self, ref: ColumnId) -> ColumnId | None:
        for child, parent in self.foreign_keys:
            if child == ref:
                return parent
        return None


def _canonical_type(raw: str) -> str:
    raw = raw.lower()
    return raw if raw in COLUMN_TYPES else _TYPE_ALIASES.get(raw, "text")


def schema_from_spider(entry: dict) -> Schema:
    """Build a Schema from one record of a Spider-format tables.json."""
    table_names = [t.lower() for t in entry["table_names_original"]]
    tables = [Table(name, []) for name in table_names]
    col_refs: list[ColumnId | None] = []
    for (tbl_idx, col_name), ctype in zip(
        entry["column_names_original"], entry["column_types"]
    ):
        if tbl_idx < 0:  # the synthetic "*" column
            col_refs.append(None)
            continue
        name = col_name.lower()
        tables[tbl_idx].columns.append((name, _canonical_type(ctype)))
        col_refs.append(ColumnId(table_names[tbl_idx], name))

    def ref(i: int) -> ColumnId:
        r = col_refs[i]
        if r is None:
            raise SchemaError("key refers to the '*' column")
        return r

    pks = [ref(i) for i in entry.get("primary_keys", [])]
    fks = [(ref(c), ref(p)) for c, p in entry.get("foreign_keys", [])]
    return Schema(tables, pks, fks)


def schemas_from_spider(entries) -> dict[str, Schema]:
    """The schemas of a Spider tables.json's records, keyed by db_id; a
    SchemaError naming the first record that makes no schema under a
    string db_id of its own."""
    if not isinstance(entries, list):
        raise SchemaError("not a list of schema records")
    schemas = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"record {i} is not an object")
        try:
            db_id = entry["db_id"]
            if not isinstance(db_id, str):
                raise SchemaError(f"db_id {json.dumps(db_id)} is not a string")
            if db_id in schemas:
                raise SchemaError(f"db_id {db_id!r} appears more than once")
            schemas[db_id] = schema_from_spider(entry)
        except KeyError as exc:
            raise SchemaError(f"record {i} has no {exc} field") from None
        except (TypeError, IndexError, ValueError) as exc:  # SchemaError too
            raise SchemaError(f"record {i}: {exc}") from None
    return schemas


def load_spider_schemas(tables_json: str | Path) -> dict[str, Schema]:
    """Load all schemas from a Spider tables.json, keyed by db_id."""
    with open(tables_json) as fh:
        return schemas_from_spider(json.load(fh))
