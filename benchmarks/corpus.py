"""Benchmark inputs: two fixture schemas, their original databases, 30
query shapes, and the seeded derivation of questions and scorers.

The benchmark keeps its own copy of the fixtures so that edits to the test
suite never move the baseline. Everything a run feeds the program is a pure
function of the workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from guidedsql.executor import DatabaseInstance
from guidedsql.schema import ColumnId, Schema, Table
from guidedsql.scorer import NgramScorer, tokenize_sql


def concert_schema() -> Schema:
    return Schema(
        tables=[
            Table("singer", [("singer_id", "integer"), ("name", "text"), ("age", "integer"),
                             ("country", "text"), ("rating", "real")]),
            Table("concert", [("concert_id", "integer"), ("singer_id", "integer"),
                              ("year", "integer"), ("attendance", "integer"),
                              ("venue", "text")]),
        ],
        primary_keys=[ColumnId("singer", "singer_id"), ColumnId("concert", "concert_id")],
        foreign_keys=[(ColumnId("concert", "singer_id"), ColumnId("singer", "singer_id"))],
    )


def cars_schema() -> Schema:
    return Schema(
        tables=[
            Table("makers", [("maker_id", "integer"), ("maker", "text"), ("country", "text")]),
            Table("cars", [("car_id", "integer"), ("maker_id", "integer"), ("model", "text"),
                           ("horsepower", "integer"), ("weight", "integer"), ("mpg", "real"),
                           ("year", "integer")]),
        ],
        primary_keys=[ColumnId("makers", "maker_id"), ColumnId("cars", "car_id")],
        foreign_keys=[(ColumnId("cars", "maker_id"), ColumnId("makers", "maker_id"))],
    )


ORIGINAL_ROWS = {
    "concert": {
        "singer": [
            (1, "Ann", 32, "US", 8.5), (2, "Bo", 24, "UK", 6.0), (3, "Cy", 41, "US", 7.9),
            (4, "Dee", 28, "UK", 9.1), (5, "Eli", 55, "FR", 5.5), (6, "Fay", 37, "US", 7.6),
        ],
        "concert": [
            (10, 1, 2015, 800, "north hall"), (11, 1, 2016, 1200, "arena"),
            (12, 2, 2013, 300, "club nine"), (13, 3, 2017, 650, "arena"),
            (14, 4, 2015, 400, "north hall"), (15, 6, 2014, 900, "open air"),
        ],
    },
    "cars": {
        "makers": [(1, "toyosan", "japan"), (2, "fordic", "usa"), (3, "wolfsberg", "germany")],
        "cars": [
            (100, 1, "corolla", 110, 2400, 33.5, 1975), (101, 1, "celica", 145, 2650, 27.0, 1976),
            (102, 2, "mustang", 210, 3200, 18.0, 1973), (103, 2, "pinto", 95, 2300, 26.5, 1975),
            (104, 3, "beetle", 60, 1900, 31.0, 1972), (105, 3, "golf", 125, 2200, 29.5, 1976),
        ],
    },
}

SCHEMAS = {"concert": concert_schema, "cars": cars_schema}


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _pair(rng, values):
    i, j = rng.choice(len(values), size=2, replace=False)
    return values[int(i)], values[int(j)]


def _span(rng, lo, hi, min_gap):
    a = int(rng.integers(lo, hi - min_gap + 1))
    return a, int(rng.integers(a + min_gap, hi + 1))


_COUNTRIES = ["US", "UK", "FR"]
# 'FR' sorts below every other country the fuzzer can draw, so a `<=` neighbor
# of `= 'FR'` can never be told apart and each such question spins through
# all 500 fuzz attempts. Only the name/age shape, which spins on its DISTINCT
# neighbor anyway, may draw it: every round then holds the fixture corpus's
# one spinning question, and seeds stay comparable.
_FILTER_COUNTRIES = ["US", "UK"]
# likewise 'usa' sorts above every maker country the fuzzer can draw
_MAKER_COUNTRIES = ["japan", "germany"]
_RATINGS = [6.0, 6.5, 7.0, 7.5, 8.0, 8.5]

# The fixture corpus's 30 query shapes; each fills its constants from the
# run's generator, drawn near the values the original databases hold.
SHAPES = [
    ("concert", lambda r: f"select name from singer where age > {int(r.integers(24, 50))}"),
    ("concert", lambda r: f"select name, age from singer where country = '{_pick(r, _COUNTRIES)}'"),
    ("concert", lambda r: f"select count(*) from singer where age >= {int(r.integers(22, 45))}"),
    ("concert", lambda r: f"select avg(age) from singer where country = '{_pick(r, _FILTER_COUNTRIES)}'"),
    ("concert", lambda r: "select name from singer where age between {} and {}".format(*_span(r, 20, 50, 8))),
    ("concert", lambda r: "select name from singer where country in ('{}', '{}')".format(*_pair(r, _FILTER_COUNTRIES))),
    ("concert", lambda r: f"select name from singer where age > {int(r.integers(24, 40))} "
                          f"and country = '{_pick(r, _FILTER_COUNTRIES)}'"),
    ("concert", lambda r: "select name from singer where age < {} or age > {}".format(*_span(r, 22, 55, 15))),
    ("concert", lambda r: "select distinct country from singer"),
    ("concert", lambda r: f"select name from singer order by age desc limit {int(r.integers(1, 5))}"),
    ("concert", lambda r: "select country, count(*) from singer group by country"),
    ("concert", lambda r: "select country, avg(age) from singer group by country "
                          f"having count(*) > {int(r.integers(2, 4))}"),
    ("concert", lambda r: "select t1.name from singer as t1 join concert as t2 "
                          f"on t1.singer_id = t2.singer_id where t2.year > {int(r.integers(2012, 2017))}"),
    ("concert", lambda r: "select t1.name, count(*) from singer as t1 join concert as t2 "
                          "on t1.singer_id = t2.singer_id group by t1.name"),
    ("concert", lambda r: f"select venue from concert where attendance > {50 * int(r.integers(6, 20))}"),
    ("concert", lambda r: f"select max(attendance) from concert where year = {int(r.integers(2013, 2018))}"),
    ("concert", lambda r: "select venue, year from concert order by attendance desc "
                          f"limit {int(r.integers(1, 4))}"),
    ("concert", lambda r: "select count(distinct venue) from concert "
                          f"where year >= {int(r.integers(2013, 2017))}"),
    ("concert", lambda r: f"select name from singer where rating > {_pick(r, _RATINGS)}"),
    ("concert", lambda r: "select name from singer where singer_id in "
                          f"(select singer_id from concert where year = {int(r.integers(2013, 2018))})"),
    ("concert", lambda r: f"select sum(attendance) from concert where year > {int(r.integers(2012, 2016))}"),
    ("cars", lambda r: f"select model from cars where horsepower > {10 * int(r.integers(8, 20))}"),
    ("cars", lambda r: f"select model from cars where year = {int(r.integers(1972, 1977))}"),
    ("cars", lambda r: f"select avg(mpg) from cars where weight < {100 * int(r.integers(21, 33))}"),
    ("cars", lambda r: f"select model from cars where horsepower > {10 * int(r.integers(8, 15))} "
                       f"and weight < {100 * int(r.integers(22, 30))}"),
    ("cars", lambda r: "select t1.maker from makers as t1 join cars as t2 "
                       f"on t1.maker_id = t2.maker_id where t2.mpg > {int(r.integers(20, 33))}"),
    ("cars", lambda r: "select makers.maker, count(*) from makers join cars "
                       "on makers.maker_id = cars.maker_id group by makers.maker"),
    ("cars", lambda r: f"select model from cars order by mpg desc limit {int(r.integers(1, 6))}"),
    ("cars", lambda r: "select count(*) from cars where year between {} and {}".format(*_span(r, 1970, 1977, 2))),
    ("cars", lambda r: "select model from cars where maker_id in "
                       f"(select maker_id from makers where country = '{_pick(r, _MAKER_COUNTRIES)}')"),
]

# How often a question's own gold query is added to its scorer's corpus.
GOLD_WEIGHTS = (0, 1, 2, 4)


@dataclass
class Question:
    question_id: str
    db_id: str
    gold: str
    gold_weight: int


@dataclass
class Inputs:
    """Everything derived from one workload seed."""

    examples: list[Question]  # the whole gold corpus, round after round
    suite_seed: int
    neighbor_seed: int
    sampler_seed: int

    def __post_init__(self) -> None:
        self._corpus = [tokenize_sql(q.gold) for q in self.examples]

    def scorer(self, question: Question) -> NgramScorer:
        """The question-conditioned scorer: the corpus plus the question's
        gold query `gold_weight` more times, so decodes differ per question."""
        extra = [tokenize_sql(question.gold)] * question.gold_weight
        return NgramScorer(self._corpus + extra, order=3, alpha=0.1, max_length=64)


# Rounds of constants in the gold corpus. With one round, a few seeds'
# trigram statistics make every decode half again as long; with four the
# decode work per question varies by a few percent between seeds.
CORPUS_ROUNDS = 4


def derive_inputs(seed: int) -> Inputs:
    """The gold corpus: CORPUS_ROUNDS rounds that each hold every shape
    once, in a seeded order, with its own constants. Gold weights rotate
    from a seeded offset, so every round holds each weight 7 or 8 times and
    over four rounds every shape meets every weight once."""
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(len(GOLD_WEIGHTS)))
    examples = []
    for r in range(CORPUS_ROUNDS):
        for shape in rng.permutation(len(SHAPES)):
            db_id, fill = SHAPES[int(shape)]
            w = GOLD_WEIGHTS[(int(shape) + r + offset) % len(GOLD_WEIGHTS)]
            examples.append(Question(f"q{len(examples):04d}", db_id, fill(rng), w))
    suite_seed, neighbor_seed, sampler_seed = (int(x) for x in rng.integers(0, 10_000, 3))
    return Inputs(examples, suite_seed, neighbor_seed, sampler_seed)


def _spider_entry(db_id: str, schema: Schema) -> dict:
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
        "table_names_original": [t.name for t in schema.tables],
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": [index[pk] for pk in schema.primary_keys],
        "foreign_keys": [[index[c], index[p]] for c, p in schema.foreign_keys],
    }


def write_dataset(inputs: Inputs, root: Path) -> None:
    """Write a Spider-layout dataset: examples.json, tables.json and one
    SQLite file per db_id under database/."""
    db_dir = root / "database"
    db_dir.mkdir(parents=True, exist_ok=True)
    examples = [{"question": f"question {q.question_id}", "query": q.gold,
                 "db_id": q.db_id, "question_id": q.question_id} for q in inputs.examples]
    (root / "examples.json").write_text(json.dumps(examples, indent=1))
    schemas = {db_id: make() for db_id, make in SCHEMAS.items()}
    (root / "tables.json").write_text(
        json.dumps([_spider_entry(db_id, s) for db_id, s in sorted(schemas.items())]))
    for db_id, schema in schemas.items():
        DatabaseInstance(schema, ORIGINAL_ROWS[db_id]).to_sqlite(db_dir / f"{db_id}.sqlite")
