"""Shared lake/query factory helpers for the test suite.

These were once copy-pasted across ``test_cascade.py``, ``test_sharding.py``
and ``test_ingest.py``; they now live here (``tests/`` has no
``__init__.py``, so ``from testkit import ...`` resolves to this module —
the name is deliberately not ``conftest``, which would collide with
``benchmarks/conftest.py`` in a whole-repo run) and build on the scenario
workload generators (:func:`repro.scenarios.random_token_lake`) where a
random lake is needed.
"""

from repro.datalake import DataLake, Table
from repro.scenarios.generators import random_token_lake
from repro.search import (
    D3LSearcher,
    OracleSearcher,
    SantosSearcher,
    StarmieSearcher,
    ValueOverlapSearcher,
)

#: Search backend name -> factory over a benchmark (the oracle needs its
#: ground truth; everything else ignores the argument).
BACKEND_FACTORIES = {
    "overlap": lambda bench: ValueOverlapSearcher(),
    "starmie": lambda bench: StarmieSearcher(),
    "d3l": lambda bench: D3LSearcher(),
    "santos": lambda bench: SantosSearcher(),
    "oracle": lambda bench: OracleSearcher(bench.ground_truth),
}


def fresh_lake(bench) -> DataLake:
    """A deep copy of a benchmark's lake (tests mutate lakes in place)."""
    return DataLake((table.copy() for table in bench.lake), name=bench.lake.name)


def rankings(searcher, queries, k=8):
    """Full ``[(table_name, score), ...]`` rankings — the bit-parity unit."""
    return [
        [(hit.table_name, hit.score) for hit in searcher.search(query, k)]
        for query in queries
    ]


def recall_against(reference, observed, k: int) -> float:
    """Mean over requests of ``|top-k(reference) ∩ top-k(observed)| / k``."""
    if not reference:
        return 0.0
    recalls = []
    for wanted, got in zip(reference, observed):
        wanted_names = {name for name, _ in wanted[:k]}
        got_names = {name for name, _ in got[:k]}
        recalls.append(len(wanted_names & got_names) / max(len(wanted_names), 1))
    return sum(recalls) / len(recalls)


def random_lake(seed: int, num_tables: int = 14) -> DataLake:
    """A random lake of small tables with varied shapes and shared vocabulary."""
    return random_token_lake(seed, num_tables=num_tables)


def make_table(name: str, seed: str = "x", rows: int = 6) -> Table:
    return Table(
        name=name,
        columns=["city", "population"],
        rows=[(f"{seed}ville{i}", str(1000 + i)) for i in range(rows)],
    )


def make_lake(*names: str) -> DataLake:
    return DataLake([make_table(name) for name in names], name="ingest-test")
