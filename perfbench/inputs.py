"""Seeded benchmark inputs: dev databases, question pools, schedules.

The seed picks the dev databases' contents and the dev questions (the
corpus generator is deterministic per seed), the hot set's Zipf draws and
the open-loop arrival times.  The server receives only the generated
SQLite files and HTTP requests.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Question:
    database_id: str
    question: str
    gold_sql: str


@dataclass
class Inputs:
    databases: dict[str, str]       # database id -> SQLite path
    questions: list[Question]       # unique (database_id, question), seeded order


def build_inputs(seed: int, directory: Path, per_domain: int) -> Inputs:
    """Materialize the dev databases for ``seed`` and its dev questions.

    Questions from the four dev domains are interleaved in the
    generator's seeded order, so every stretch of the pool spans all
    databases.
    """
    from repro.spider import CorpusConfig, generate_corpus

    corpus = generate_corpus(CorpusConfig(
        train_per_domain=0, dev_per_domain=per_domain, seed=seed,
        train_domains=(),
    ))
    directory.mkdir(parents=True, exist_ok=True)
    databases: dict[str, str] = {}
    for name in corpus.dev_domains:
        path = directory / f"{name}.sqlite"
        path.unlink(missing_ok=True)
        corpus.domains[name].build_database(str(path)).close()
        databases[name] = str(path)
    seen: set[tuple[str, str]] = set()
    questions: list[Question] = []
    for example in corpus.dev:
        key = (example.db_id, normalize(example.question))
        if key in seen:
            continue
        seen.add(key)
        questions.append(Question(example.db_id, example.question, example.gold_sql))
    return Inputs(databases=databases, questions=questions)


def normalize(question: str) -> str:
    from repro.serving.cache import normalize_question

    return normalize_question(question)


class GoldOracle:
    """Gold result rows, executed on the benchmark's own read-only
    connections (never through the server)."""

    def __init__(self, databases: dict[str, str]):
        self._connections = {
            db_id: sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            for db_id, path in databases.items()
        }
        self._rows: dict[tuple[str, str], Counter] = {}

    def rows(self, question: Question) -> Counter:
        key = (question.database_id, question.gold_sql)
        if key not in self._rows:
            cursor = self._connections[question.database_id].execute(question.gold_sql)
            self._rows[key] = Counter(tuple(row) for row in cursor.fetchall())
        return self._rows[key]

    def matches(self, question: Question, rows) -> bool:
        if rows is None:
            return False
        return Counter(tuple(row) for row in rows) == self.rows(question)

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()


def zipf_draws(count: int, size: int, exponent: float, rng: random.Random) -> list[int]:
    """``count`` indices into a hot set of ``size``, rank k drawn with
    weight 1/k**exponent."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, size + 1)]
    return rng.choices(range(size), weights=weights, k=count)


def poisson_arrivals(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` over ``seconds``,
    conditioned on its expected count (so every seed sends the same
    number of requests): sorted uniform points."""
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))
