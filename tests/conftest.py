"""Shared fixtures: toy schemas, original databases, a gold-query corpus,
and a session-wide query executor."""

import json
import sqlite3
from contextlib import closing

import pytest

from guidedsql.executor import DatabaseInstance, QueryExecutor
from guidedsql.schema import ColumnId, Schema, Table


def make_concert_schema() -> Schema:
    return Schema(
        tables=[
            Table("singer", [
                ("singer_id", "integer"),
                ("name", "text"),
                ("age", "integer"),
                ("country", "text"),
                ("rating", "real"),
            ]),
            Table("concert", [
                ("concert_id", "integer"),
                ("singer_id", "integer"),
                ("year", "integer"),
                ("attendance", "integer"),
                ("venue", "text"),
            ]),
        ],
        primary_keys=[ColumnId("singer", "singer_id"), ColumnId("concert", "concert_id")],
        foreign_keys=[(ColumnId("concert", "singer_id"), ColumnId("singer", "singer_id"))],
    )


def make_cars_schema() -> Schema:
    return Schema(
        tables=[
            Table("makers", [
                ("maker_id", "integer"),
                ("maker", "text"),
                ("country", "text"),
            ]),
            Table("cars", [
                ("car_id", "integer"),
                ("maker_id", "integer"),
                ("model", "text"),
                ("horsepower", "integer"),
                ("weight", "integer"),
                ("mpg", "real"),
                ("year", "integer"),
            ]),
        ],
        primary_keys=[ColumnId("makers", "maker_id"), ColumnId("cars", "car_id")],
        foreign_keys=[(ColumnId("cars", "maker_id"), ColumnId("makers", "maker_id"))],
    )


def make_concert_db(schema: Schema) -> DatabaseInstance:
    return DatabaseInstance(
        schema=schema,
        tables={
            "singer": [
                (1, "Ann", 32, "US", 8.5),
                (2, "Bo", 24, "UK", 6.0),
                (3, "Cy", 41, "US", 7.9),
                (4, "Dee", 28, "UK", 9.1),
                (5, "Eli", 55, "FR", 5.5),
                (6, "Fay", 37, "US", 7.6),
            ],
            "concert": [
                (10, 1, 2015, 800, "north hall"),
                (11, 1, 2016, 1200, "arena"),
                (12, 2, 2013, 300, "club nine"),
                (13, 3, 2017, 650, "arena"),
                (14, 4, 2015, 400, "north hall"),
                (15, 6, 2014, 900, "open air"),
            ],
        },
    )


def make_cars_db(schema: Schema) -> DatabaseInstance:
    return DatabaseInstance(
        schema=schema,
        tables={
            "makers": [
                (1, "toyosan", "japan"),
                (2, "fordic", "usa"),
                (3, "wolfsberg", "germany"),
            ],
            "cars": [
                (100, 1, "corolla", 110, 2400, 33.5, 1975),
                (101, 1, "celica", 145, 2650, 27.0, 1976),
                (102, 2, "mustang", 210, 3200, 18.0, 1973),
                (103, 2, "pinto", 95, 2300, 26.5, 1975),
                (104, 3, "beetle", 60, 1900, 31.0, 1972),
                (105, 3, "golf", 125, 2200, 29.5, 1976),
            ],
        },
    )


# (schema key, gold SQL) pairs: the fixture corpus used for roundtrip and
# suite-quality tests.
FIXTURE_QUERIES = [
    ("concert", "select name from singer where age > 30"),
    ("concert", "select name, age from singer where country = 'US'"),
    ("concert", "select count(*) from singer where age >= 25"),
    ("concert", "select avg(age) from singer where country = 'UK'"),
    ("concert", "select name from singer where age between 25 and 40"),
    ("concert", "select name from singer where country in ('US', 'UK')"),
    ("concert", "select name from singer where age > 30 and country = 'US'"),
    ("concert", "select name from singer where age < 25 or age > 50"),
    ("concert", "select distinct country from singer"),
    ("concert", "select name from singer order by age desc limit 3"),
    ("concert", "select country, count(*) from singer group by country"),
    ("concert",
     "select country, avg(age) from singer group by country having count(*) > 2"),
    ("concert",
     "select t1.name from singer as t1 join concert as t2 "
     "on t1.singer_id = t2.singer_id where t2.year > 2014"),
    ("concert",
     "select t1.name, count(*) from singer as t1 join concert as t2 "
     "on t1.singer_id = t2.singer_id group by t1.name"),
    ("concert", "select venue from concert where attendance > 500"),
    ("concert", "select max(attendance) from concert where year = 2015"),
    ("concert", "select venue, year from concert order by attendance desc limit 1"),
    ("concert", "select count(distinct venue) from concert where year >= 2014"),
    ("concert", "select name from singer where rating > 7.5"),
    ("concert",
     "select name from singer where singer_id in "
     "(select singer_id from concert where year = 2015)"),
    ("concert", "select sum(attendance) from concert where year > 2013"),
    ("cars", "select model from cars where horsepower > 150"),
    ("cars", "select model from cars where year = 1975"),
    ("cars", "select avg(mpg) from cars where weight < 3000"),
    ("cars", "select model from cars where horsepower > 120 and weight < 2500"),
    ("cars",
     "select t1.maker from makers as t1 join cars as t2 "
     "on t1.maker_id = t2.maker_id where t2.mpg > 30"),
    ("cars",
     "select makers.maker, count(*) from makers join cars "
     "on makers.maker_id = cars.maker_id group by makers.maker"),
    ("cars", "select model from cars order by mpg desc limit 5"),
    ("cars", "select count(*) from cars where year between 1970 and 1976"),
    ("cars",
     "select model from cars where maker_id in "
     "(select maker_id from makers where country = 'japan')"),
]


@pytest.fixture(scope="session")
def concert_schema():
    return make_concert_schema()


@pytest.fixture(scope="session")
def cars_schema():
    return make_cars_schema()


@pytest.fixture(scope="session")
def concert_db(concert_schema):
    return make_concert_db(concert_schema)


@pytest.fixture(scope="session")
def cars_db(cars_schema):
    return make_cars_db(cars_schema)


@pytest.fixture(scope="session")
def fixtures(concert_schema, cars_schema, concert_db, cars_db):
    """(schema, original db, gold SQL) for every corpus query."""
    lookup = {"concert": (concert_schema, concert_db), "cars": (cars_schema, cars_db)}
    return [(lookup[key][0], lookup[key][1], sql) for key, sql in FIXTURE_QUERIES]


@pytest.fixture(scope="session")
def executor():
    with QueryExecutor(time_limit=10.0) as ex:
        yield ex


def spider_entry(db_id: str, schema: Schema) -> dict:
    """Render a Schema back into a Spider-format tables.json record."""
    table_names = [t.name for t in schema.tables]
    column_names = [[-1, "*"]]
    column_types = ["text"]
    index = {}
    for ti, table in enumerate(schema.tables):
        for col, ctype in table.columns:
            index[ColumnId(table.name, col)] = len(column_names)
            column_names.append([ti, col])
            column_types.append(ctype)
    return {
        "db_id": db_id,
        "table_names_original": table_names,
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": [index[pk] for pk in schema.primary_keys],
        "foreign_keys": [[index[c], index[p]] for c, p in schema.foreign_keys],
    }


def write_dataset(root, examples, schemas, databases):
    """Write a Spider-style dataset directory; returns its three paths.

    examples: list of (db_id, gold SQL); schemas: {db_id: Schema};
    databases: {db_id: DatabaseInstance}.
    """
    root.mkdir(parents=True, exist_ok=True)
    examples_file = root / "examples.json"
    tables_file = root / "tables.json"
    db_dir = root / "database"
    db_dir.mkdir(exist_ok=True)
    records = [
        {
            "question": f"question {i}",
            "query": sql,
            "db_id": db_id,
            "question_id": f"q{i:04d}",
        }
        for i, (db_id, sql) in enumerate(examples)
    ]
    examples_file.write_text(json.dumps(records, indent=2))
    tables_file.write_text(
        json.dumps([spider_entry(db_id, s) for db_id, s in sorted(schemas.items())])
    )
    for db_id, db in databases.items():
        db.to_sqlite(db_dir / f"{db_id}.sqlite")
    return examples_file, tables_file, db_dir


def spoil_database(path, how):
    """Replace the database file at `path` with one `from_sqlite` cannot
    load: a file that is not SQLite, or an SQLite file without the concert
    schema's `singer` table."""
    path.unlink()
    if how == "not-sqlite":
        path.write_text("not a database\n" * 100)
    else:
        with closing(sqlite3.connect(path)) as con:
            con.execute("CREATE TABLE concert (concert_id INTEGER)")


DATABASE_SPOILS = {"not-sqlite": "file is not a database",
                   "no-singer-table": "no such table: singer"}
