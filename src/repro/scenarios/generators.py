"""Registered workload generators: reproducible scenario shapes.

Every subsystem before this one was validated on a single benchmark lake
shape with uniform query traffic.  A :class:`Scenario` packages one
*realistic workload shape* — a seeded lake, a query stream (possibly with
repeats, so caching behaviour is measurable), and an optional table-mutation
stream that drives the streaming-ingest write path — so the tier-1 parity
sweep (``tests/test_scenarios.py``) can cross shapes with deployment configs.

Generators self-register with
:func:`~repro.api.registry.register_workload`::

    @register_workload("shared-vocab")
    def shared_vocab_scenario(seed: int = 0, ...) -> Scenario: ...

and are fully deterministic from their integer seed: the same
``(generator, seed)`` pair always produces a bit-identical scenario
(:meth:`Scenario.fingerprint` digests the lake content, the query stream
order and the mutation stream, and the parity suite asserts it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import register_workload
from repro.benchgen import generate_tus_benchmark
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.ingest.events import TableEvent
from repro.utils.rng import derive_seed, seeded_rng


@dataclass
class Scenario:
    """One reproducible workload: a lake, a query stream, optional writes.

    ``query_stream`` entries may repeat (hot-table workloads repeat their
    popular queries), so its length is the number of *requests*, not the
    number of distinct query tables.  ``recall_floor`` is the cascade-approx
    recall@10 this shape is expected to sustain at a half-lake candidate
    budget — the property suite enforces it per generator, and adversarial
    shapes declare honestly lower floors instead of being skipped.
    """

    name: str
    seed: int
    lake: DataLake
    query_stream: list[Table]
    mutation_stream: list[TableEvent] = field(default_factory=list)
    recall_floor: float = 0.8
    description: str = ""

    @property
    def num_queries(self) -> int:
        """Distinct query tables in the stream."""
        return len({table.name for table in self.query_stream})

    def fresh_lake(self) -> DataLake:
        """An isolated copy of the lake (cells shared, catalog independent).

        Every matrix cell attaches and possibly mutates its own copy, so
        cells never observe each other's writes.
        """
        return DataLake(
            (table.copy() for table in self.lake), name=self.lake.name
        )

    def fresh_mutations(self) -> list[TableEvent]:
        """Mutation events carrying per-call table copies."""
        return [
            event
            if event.table is None
            else TableEvent(op=event.op, name=event.name, table=event.table.copy())
            for event in self.mutation_stream
        ]

    def fingerprint(self) -> str:
        """Content digest over the lake, query order and mutation stream.

        Two scenarios with equal fingerprints are bit-identical workloads;
        the seeded-determinism tests compare exactly this.
        """
        digest = hashlib.sha256()
        digest.update(self.lake.fingerprint().encode())
        for table in self.query_stream:
            digest.update(b"\x1fq")
            digest.update(table.name.encode())
            digest.update(table.content_fingerprint().encode())
        for event in self.mutation_stream:
            digest.update(b"\x1fm")
            digest.update(f"{event.op}:{event.name}".encode())
            if event.table is not None:
                digest.update(event.table.content_fingerprint().encode())
        return digest.hexdigest()


# --------------------------------------------------------------- lake builders
def _token_rows(
    rng: np.random.Generator,
    num_rows: int,
    num_columns: int,
    *,
    vocab_size: int,
    prefix: str = "tok",
) -> list[tuple[str, ...]]:
    return [
        tuple(
            f"{prefix}{int(rng.integers(0, vocab_size))}" for _ in range(num_columns)
        )
        for _ in range(num_rows)
    ]


def random_token_lake(
    seed: int,
    *,
    num_tables: int = 14,
    min_columns: int = 1,
    max_columns: int = 3,
    min_rows: int = 2,
    max_rows: int = 8,
    vocab_size: int = 40,
    name: str | None = None,
    table_prefix: str = "rt",
) -> DataLake:
    """A random lake of token tables with varied shapes and shared vocabulary.

    The building block behind several scenario shapes (and the test suites'
    property-style sweeps): table/column/row counts and every cell draw from
    one seeded stream, so equal seeds produce bit-identical lakes.
    """
    rng = seeded_rng(derive_seed(seed, "token-lake", num_tables, vocab_size))
    tables = []
    for index in range(num_tables):
        num_columns = int(rng.integers(min_columns, max_columns + 1))
        num_rows = int(rng.integers(min_rows, max_rows + 1))
        columns = [f"col{c}" for c in range(num_columns)]
        rows = _token_rows(rng, num_rows, num_columns, vocab_size=vocab_size)
        tables.append(
            Table(name=f"{table_prefix}{index}", columns=columns, rows=rows)
        )
    return DataLake(tables, name=name or f"random{seed}")


def _sampled_query(table: Table, rng: np.random.Generator, name: str) -> Table:
    """A query table: a row-sample of one lake table (>= 3 rows, order kept)."""
    num_rows = max(3, min(table.num_rows, int(rng.integers(3, 9))))
    if table.num_rows <= num_rows:
        indices = list(range(table.num_rows))
    else:
        chosen = rng.choice(table.num_rows, size=num_rows, replace=False)
        indices = sorted(int(i) for i in chosen)
    return Table(
        name=name,
        columns=list(table.columns),
        rows=[table.rows[i] for i in indices],
        metadata={"source_table": table.name},
    )


def _cycled_stream(queries: list[Table], stream_length: int) -> list[Table]:
    return [queries[i % len(queries)] for i in range(stream_length)]


def _zipf_stream(
    queries: list[Table],
    rng: np.random.Generator,
    *,
    stream_length: int,
    exponent: float,
) -> list[Table]:
    """Zipf-sample a hot-table request stream over the query pool."""
    ranks = np.arange(1, len(queries) + 1, dtype=float)
    weights = ranks**-exponent
    weights /= weights.sum()
    picks = rng.choice(len(queries), size=stream_length, p=weights)
    return [queries[int(i)] for i in picks]


def _perturbed_rows(
    table: Table,
    rng: np.random.Generator,
    *,
    cell_fraction: float,
    prefix: str,
) -> list[tuple[str, ...]]:
    """Copy ``table``'s rows, replacing ``cell_fraction`` of cells."""
    rows = [list(row) for row in table.rows]
    total = table.num_rows * table.num_columns
    flips = max(1, int(total * cell_fraction))
    for _ in range(flips):
        r = int(rng.integers(0, table.num_rows))
        c = int(rng.integers(0, table.num_columns))
        rows[r][c] = f"{prefix}{int(rng.integers(0, 1000))}"
    return [tuple(row) for row in rows]


# ------------------------------------------------------------------ generators
@register_workload("uniform")
def uniform_scenario(
    seed: int = 0,
    *,
    num_base_tables: int = 6,
    lake_tables_per_base: int = 8,
    base_rows: int = 40,
    num_queries: int = 6,
) -> Scenario:
    """The baseline shape: a TUS-style lake, every query issued exactly once."""
    benchmark = generate_tus_benchmark(
        num_base_tables=num_base_tables,
        lake_tables_per_base=lake_tables_per_base,
        base_rows=base_rows,
        num_queries=num_queries,
        seed=derive_seed(seed, "scenario", "uniform"),
    )
    return Scenario(
        name="uniform",
        seed=seed,
        lake=benchmark.lake,
        query_stream=list(benchmark.query_tables),
        recall_floor=0.8,
        description="TUS-style lake, uniform one-shot query traffic",
    )


@register_workload("hot-queries")
def hot_queries_scenario(
    seed: int = 0,
    *,
    num_base_tables: int = 6,
    lake_tables_per_base: int = 8,
    base_rows: int = 40,
    num_queries: int = 6,
    stream_length: int = 18,
    zipf_exponent: float = 1.5,
) -> Scenario:
    """A skewed request stream: Zipf-sampled repeats over a hot query pool.

    The repeats are the point — result caching pays here and nowhere else,
    which is exactly the trade-off the config grid has to surface.
    """
    benchmark = generate_tus_benchmark(
        num_base_tables=num_base_tables,
        lake_tables_per_base=lake_tables_per_base,
        base_rows=base_rows,
        num_queries=num_queries,
        seed=derive_seed(seed, "scenario", "hot-queries"),
    )
    rng = seeded_rng(derive_seed(seed, "scenario", "hot-queries", "stream"))
    stream = _zipf_stream(
        list(benchmark.query_tables),
        rng,
        stream_length=stream_length,
        exponent=zipf_exponent,
    )
    return Scenario(
        name="hot-queries",
        seed=seed,
        lake=benchmark.lake,
        query_stream=stream,
        recall_floor=0.8,
        description="Zipf-skewed repeats over a hot query pool",
    )


@register_workload("wide-tables")
def wide_tables_scenario(
    seed: int = 0,
    *,
    num_tables: int = 96,
    num_queries: int = 5,
    stream_length: int = 8,
) -> Scenario:
    """Wide, short tables: many columns, few rows (entity-profile lakes).

    Large enough (96 tables) that a 32-candidate cascade budget prunes
    two-thirds of the lake: per-table exact scoring is most expensive on
    wide tables, so this is the shape where the cascade presets have to
    earn their front seats with a real latency win rather than degenerate
    to exact-plus-overhead.
    """
    lake = random_token_lake(
        derive_seed(seed, "scenario", "wide-tables"),
        num_tables=num_tables,
        min_columns=8,
        max_columns=14,
        min_rows=4,
        max_rows=8,
        vocab_size=480,
        name="wide-tables",
        table_prefix="wide",
    )
    rng = seeded_rng(derive_seed(seed, "scenario", "wide-tables", "queries"))
    tables = [lake.get(name) for name in lake.table_names()]
    queries = [
        _sampled_query(tables[int(rng.integers(0, len(tables)))], rng, f"q{i}")
        for i in range(num_queries)
    ]
    return Scenario(
        name="wide-tables",
        seed=seed,
        lake=lake,
        query_stream=_cycled_stream(queries, stream_length),
        recall_floor=0.6,
        description="many columns, few rows per table",
    )


@register_workload("tall-tables")
def tall_tables_scenario(
    seed: int = 0,
    *,
    num_tables: int = 16,
    num_queries: int = 4,
    stream_length: int = 6,
) -> Scenario:
    """Tall, narrow tables: few columns, many rows (log/measurement lakes)."""
    lake = random_token_lake(
        derive_seed(seed, "scenario", "tall-tables"),
        num_tables=num_tables,
        min_columns=1,
        max_columns=3,
        min_rows=60,
        max_rows=120,
        vocab_size=400,
        name="tall-tables",
        table_prefix="tall",
    )
    rng = seeded_rng(derive_seed(seed, "scenario", "tall-tables", "queries"))
    tables = [lake.get(name) for name in lake.table_names()]
    queries = [
        _sampled_query(tables[int(rng.integers(0, len(tables)))], rng, f"q{i}")
        for i in range(num_queries)
    ]
    return Scenario(
        name="tall-tables",
        seed=seed,
        lake=lake,
        query_stream=_cycled_stream(queries, stream_length),
        recall_floor=0.6,
        description="few columns, many rows per table",
    )


@register_workload("near-duplicates")
def near_duplicates_scenario(
    seed: int = 0,
    *,
    num_bases: int = 5,
    dupes_per_base: int = 5,
    num_queries: int = 5,
    stream_length: int = 8,
) -> Scenario:
    """A near-duplicate-heavy lake: clusters of barely-perturbed copies.

    Rankings are decided by tiny score gaps between near-identical tables,
    the worst case for an approximate prefilter's margin — the shape where
    "exact" earns its keep.
    """
    rng = seeded_rng(derive_seed(seed, "scenario", "near-duplicates"))
    tables: list[Table] = []
    bases: list[Table] = []
    for b in range(num_bases):
        num_columns = int(rng.integers(3, 6))
        base = Table(
            name=f"dupbase{b}",
            columns=[f"col{c}" for c in range(num_columns)],
            rows=_token_rows(rng, int(rng.integers(10, 18)), num_columns, vocab_size=200),
        )
        bases.append(base)
        tables.append(base)
        for d in range(dupes_per_base):
            tables.append(
                Table(
                    name=f"dup{b}_{d}",
                    columns=list(base.columns),
                    rows=_perturbed_rows(
                        base, rng, cell_fraction=0.08, prefix="alt"
                    ),
                )
            )
    lake = DataLake(tables, name="near-duplicates")
    queries = [
        _sampled_query(bases[i % len(bases)], rng, f"q{i}") for i in range(num_queries)
    ]
    return Scenario(
        name="near-duplicates",
        seed=seed,
        lake=lake,
        query_stream=_cycled_stream(queries, stream_length),
        recall_floor=0.7,
        description="clusters of near-identical tables, tiny score margins",
    )


@register_workload("shared-vocab")
def shared_vocab_scenario(
    seed: int = 0,
    *,
    num_tables: int = 24,
    vocab_size: int = 14,
    num_queries: int = 5,
    stream_length: int = 8,
) -> Scenario:
    """An adversarial lake: every table draws from one tiny shared vocabulary.

    Value-overlap signals collide across the whole lake, so approximate
    prefilters lose their discriminative power — the generator declares an
    honestly lower recall floor rather than hiding the regression.
    """
    lake = random_token_lake(
        derive_seed(seed, "scenario", "shared-vocab"),
        num_tables=num_tables,
        min_columns=2,
        max_columns=4,
        min_rows=6,
        max_rows=14,
        vocab_size=vocab_size,
        name="shared-vocab",
        table_prefix="sv",
    )
    rng = seeded_rng(derive_seed(seed, "scenario", "shared-vocab", "queries"))
    tables = [lake.get(name) for name in lake.table_names()]
    queries = [
        _sampled_query(tables[int(rng.integers(0, len(tables)))], rng, f"q{i}")
        for i in range(num_queries)
    ]
    return Scenario(
        name="shared-vocab",
        seed=seed,
        lake=lake,
        query_stream=_cycled_stream(queries, stream_length),
        recall_floor=0.5,
        description="one tiny vocabulary shared by every table",
    )


@register_workload("burst-writes")
def burst_writes_scenario(
    seed: int = 0,
    *,
    num_tables: int = 18,
    num_queries: int = 4,
    stream_length: int = 6,
    adds: int = 12,
    replaces: int = 12,
    removes: int = 6,
) -> Scenario:
    """A write-heavy stream: bursts of adds/replaces/removes after the reads.

    The mutation stream drives ``Discovery.ingest()`` — per-table netting,
    micro-batch application, backend re-sync — so the matrix scores each
    config's write throughput (mutations/sec), not just its read path.
    Removes target tables added earlier in the stream, so single-flush runs
    exercise the netting path and multi-flush runs exercise real removal.
    """
    lake = random_token_lake(
        derive_seed(seed, "scenario", "burst-writes"),
        num_tables=num_tables,
        min_columns=2,
        max_columns=4,
        min_rows=8,
        max_rows=16,
        vocab_size=80,
        name="burst-writes",
        table_prefix="bw",
    )
    rng = seeded_rng(derive_seed(seed, "scenario", "burst-writes", "stream"))
    tables = [lake.get(name) for name in lake.table_names()]
    queries = [
        _sampled_query(tables[int(rng.integers(0, len(tables)))], rng, f"q{i}")
        for i in range(num_queries)
    ]
    events: list[TableEvent] = []
    added_names: list[str] = []
    for i in range(adds):
        name = f"new{i}"
        num_columns = int(rng.integers(2, 5))
        table = Table(
            name=name,
            columns=[f"col{c}" for c in range(num_columns)],
            rows=_token_rows(rng, int(rng.integers(6, 14)), num_columns, vocab_size=80),
        )
        events.append(TableEvent(op="add", name=name, table=table))
        added_names.append(name)
    for i in range(replaces):
        target = tables[int(rng.integers(0, len(tables)))]
        events.append(
            TableEvent(
                op="replace",
                name=target.name,
                table=Table(
                    name=target.name,
                    columns=list(target.columns),
                    rows=_perturbed_rows(target, rng, cell_fraction=0.2, prefix="upd"),
                ),
            )
        )
    for name in added_names[: min(removes, len(added_names))]:
        events.append(TableEvent(op="remove", name=name))
    return Scenario(
        name="burst-writes",
        seed=seed,
        lake=lake,
        query_stream=_cycled_stream(queries, stream_length),
        mutation_stream=events,
        recall_floor=0.6,
        description="read stream plus add/replace/remove write bursts",
    )
