"""Spider-style dataset ingestion: examples file, tables.json, database dir."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .executor import DatabaseInstance
from .schema import Schema, SchemaError, schemas_from_spider


class DatasetError(ValueError):
    """Dataset files that do not make a dataset; the message names the file."""


@dataclass
class DatasetExample:
    question: str
    gold_query: str
    db_id: str
    question_id: str


@dataclass
class Dataset:
    examples: list[DatasetExample]
    schemas: dict[str, Schema]
    db_dir: Path
    # each db_id's database, read once; a missing file is looked for again
    _databases: dict[str, DatabaseInstance] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def schema_for(self, example: DatasetExample) -> Schema:
        return self.schemas[example.db_id]

    def database_for(self, example: DatasetExample) -> DatabaseInstance:
        """The original database of `example`'s db_id, loaded on its first
        call; its rows are read on their first use."""
        db = self._databases.get(example.db_id)
        if db is None:
            db = self._databases[example.db_id] = self._read_database(example)
        return db

    def _read_database(self, example: DatasetExample) -> DatabaseInstance:
        path = self.db_dir / f"{example.db_id}.sqlite"
        if not path.exists():  # Spider's own layout: <db_id>/<db_id>.sqlite
            nested = self.db_dir / example.db_id / path.name
            if not nested.exists():
                raise FileNotFoundError(f"no database file for db_id {example.db_id!r}: "
                                        f"neither {path} nor {nested} exists")
            path = nested
        return DatabaseInstance.from_sqlite(path, self.schema_for(example))


def _load_json(path: str | Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise DatasetError(f"{path}: not a JSON file ({exc})") from None


def load_dataset(examples_file: str | Path, tables_file: str | Path,
                 db_dir: str | Path) -> Dataset:
    """The dataset; a DatasetError naming the file at fault for a file that is
    not JSON, an examples file that is not a list of objects each with a
    string question, query and db_id, a repeated question_id, a tables file
    with a record that makes no schema under a string db_id of its own, or a
    db_id that `tables_file` lacks."""
    raw = _load_json(examples_file)
    if not isinstance(raw, list):
        raise DatasetError(f"{examples_file}: not a list of examples")
    examples = []
    seen: set[str] = set()
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise DatasetError(f"{examples_file}: example {i} is not an object")
        for key in ("question", "query", "db_id"):
            if key not in rec:
                raise DatasetError(f"{examples_file}: example {i} has no {key!r} field")
            if not isinstance(rec[key], str):
                raise DatasetError(f"{examples_file}: example {i}'s {key!r} is "
                                   f"{json.dumps(rec[key])}, not a string")
        example = DatasetExample(
            question=rec["question"],
            gold_query=rec["query"],
            db_id=rec["db_id"],
            question_id=str(rec.get("question_id", f"q{i:04d}")),
        )
        if example.question_id in seen:  # one verdict and one suite dir per id
            raise DatasetError(f"{examples_file}: question_id {example.question_id!r} "
                               "appears more than once")
        seen.add(example.question_id)
        examples.append(example)
    try:
        schemas = schemas_from_spider(_load_json(tables_file))
    except SchemaError as exc:
        raise DatasetError(f"{tables_file}: {exc}") from None
    missing = {e.db_id for e in examples} - set(schemas)
    if missing:
        raise DatasetError(f"{examples_file}: examples reference db ids that {tables_file} "
                           f"lacks: {sorted(missing)}")
    return Dataset(examples, schemas, Path(db_dir))
