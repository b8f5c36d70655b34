"""Spider-style dataset ingestion: examples file, tables.json, database dir."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .executor import DatabaseInstance
from .schema import Schema, load_spider_schemas


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

    def schema_for(self, example: DatasetExample) -> Schema:
        return self.schemas[example.db_id]

    def database_for(self, example: DatasetExample) -> DatabaseInstance:
        path = self.db_dir / f"{example.db_id}.sqlite"
        if not path.exists():  # Spider's own layout: <db_id>/<db_id>.sqlite
            path = self.db_dir / example.db_id / path.name
        return DatabaseInstance.from_sqlite(path, self.schema_for(example))


def load_dataset(examples_file: str | Path, tables_file: str | Path,
                 db_dir: str | Path) -> Dataset:
    with open(examples_file) as fh:
        raw = json.load(fh)
    examples = []
    for i, rec in enumerate(raw):
        examples.append(
            DatasetExample(
                question=rec["question"],
                gold_query=rec["query"],
                db_id=rec["db_id"],
                question_id=str(rec.get("question_id", f"q{i:04d}")),
            )
        )
    schemas = load_spider_schemas(tables_file)
    missing = {e.db_id for e in examples} - set(schemas)
    if missing:
        raise ValueError(f"examples reference unknown db ids: {sorted(missing)}")
    return Dataset(examples, schemas, Path(db_dir))
