"""Every input of every workload, generated from ``--seed`` and nothing else.

Each generator derives its own child seed from the run seed and a label
(:func:`repro.utils.rng.derive_seed`), so the lake, the query stream, the
Zipf draws, the write stream and the embedding pool are independent streams
that two commits reproduce identically.  Request streams are lazy generators
consumed *in order*: a faster commit gets further into the same stream, it
never sees different requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.benchgen import generate_tus_benchmark, generate_ugen_benchmark
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.ingest.events import TableEvent
from repro.utils.rng import derive_seed, seeded_rng

#: Share of a lake table's rows a sampled query keeps.
QUERY_ROW_SHARE = 0.7


@dataclass(frozen=True)
class Scale:
    """Sizes that ``--smoke`` shrinks; the defaults are the measured workloads."""

    ugen_topics: int = 36  # x 20 tables per topic = the 720-table serve lake
    ugen_rows: int = 5  # generator rows-per-table; lake tables hold 3-9 rows
    registered_queries: int = 36
    tus_bases: int = 24
    tus_tables_per_base: int = 16
    tus_base_rows: int = 40
    pool_tuples: int = 5000
    pool_sizes: tuple[int, ...] = (1000, 2500, 5000)
    pool_ks: tuple[int, ...] = (30, 100)
    replay_requests: int = 24
    parity_sample: int = 4
    setup_repeats: int = 3
    warmup_requests: int = 4
    #: ``search-large`` warm-up, in rounds of one query per backend (see
    #: ``workload_search``: the query-side token-vector caches start cold).
    search_warmup_rounds: int = 120

    @classmethod
    def smoke(cls) -> "Scale":
        return cls(
            ugen_topics=1,
            registered_queries=4,
            tus_bases=4,
            tus_tables_per_base=4,
            tus_base_rows=24,
            pool_tuples=240,
            pool_sizes=(80, 160, 240),
            pool_ks=(5, 10),
            replay_requests=1,
            parity_sample=1,
            setup_repeats=1,
            warmup_requests=1,
            search_warmup_rounds=2,
        )


# ---------------------------------------------------------------------- lakes
def serve_lake(seed: int, scale: Scale) -> DataLake:
    """The ``ugen`` lake both serve workloads run against (20 tables per topic).

    Short tables (``ugen_rows``): a request aligns and embeds the query and
    its ten result tables, so its cost is proportional to their height.  At
    the generator's default height a request costs ~330 ms and a 20-second
    run times 45 of them; at half the height it times twice as many, each
    varying less, and the run's median is that much steadier.
    """
    benchmark = generate_ugen_benchmark(
        num_queries=scale.ugen_topics,
        rows_per_table=scale.ugen_rows,
        seed=derive_seed(seed, "serve-lake"),
    )
    return benchmark.lake


def large_lake(seed: int, scale: Scale) -> DataLake:
    """The wide ``tus`` lake of ``search-large`` (bases x tables-per-base)."""
    benchmark = generate_tus_benchmark(
        num_base_tables=scale.tus_bases,
        base_rows=scale.tus_base_rows,
        lake_tables_per_base=scale.tus_tables_per_base,
        num_queries=scale.tus_bases,
        seed=derive_seed(seed, "large-lake"),
    )
    return benchmark.lake


# -------------------------------------------------------------------- queries
def sample_rows(table: Table, rng: np.random.Generator, *, name: str) -> Table:
    """A renamed copy of ``table`` keeping a seeded share of its rows (>= 3)."""
    keep = min(table.num_rows, max(3, math.ceil(QUERY_ROW_SHARE * table.num_rows)))
    positions = sorted(int(i) for i in rng.choice(table.num_rows, size=keep, replace=False))
    return Table(
        name=name,
        columns=list(table.columns),
        rows=[table.rows[position] for position in positions],
    )


def stride_walk(count: int, rng: np.random.Generator) -> Iterator[int]:
    """Endless low-discrepancy walk over ``range(count)`` from a seeded start.

    Steps by a fixed stride (about ``count`` x the golden ratio, coprime with
    ``count``), so any window of consecutive draws is spread evenly over the
    range — over a lake generated topic by topic, evenly over the topics.
    Request cost differs ~20 % between topics; an even mix keeps the work in
    a run the same from seed to seed where independent draws would not.
    """
    stride = max(1, round(count * 0.6180339887))
    while math.gcd(stride, count) != 1:
        stride += 1
    position = int(rng.integers(count))
    while True:
        yield position
        position = (position + stride) % count


def distinct_queries(lake: DataLake, seed: int, label: str) -> Iterator[Table]:
    """Endless stream of never-repeating query tables sampled from ``lake``.

    Every query has a unique name (hence a unique content fingerprint), so
    no result cache keyed by query content can ever hit.
    """
    rng = seeded_rng(derive_seed(seed, label))
    tables = [table for table in lake.tables() if table.num_rows >= 3]
    for index, position in enumerate(stride_walk(len(tables), rng)):
        source = tables[position]
        yield sample_rows(source, rng, name=f"q{index:06d}__{source.name}")


def registered_queries(lake: DataLake, seed: int, scale: Scale) -> list[Table]:
    """The hot set: query tables registered with the server by name.

    Row samples of tables evenly spaced over the lake from a seeded start —
    one per 20-table topic block of the serve lake — so every seed's hot set
    carries the same mix of cheap and expensive topics.
    """
    rng = seeded_rng(derive_seed(seed, "registered-queries"))
    tables = lake.tables()
    count = min(scale.registered_queries, len(tables))
    start, step = int(rng.integers(len(tables))), len(tables) // count
    return [
        sample_rows(tables[(start + rank * step) % len(tables)], rng, name=f"hot_{rank:02d}")
        for rank in range(count)
    ]


#: Requests between two re-deals of the Zipf ranks over the hot set.
ZIPF_REDEAL_EVERY = 8


def zipf_picks(count: int, seed: int, *, exponent: float = 1.1) -> Iterator[int]:
    """Endless Zipf(``exponent``) draws over ``count`` items, popularity drifting.

    Which item holds which rank is re-dealt every :data:`ZIPF_REDEAL_EVERY`
    draws: the hot set stays the same, its popularity order moves.  Almost
    half the Zipf mass sits on three ranks, so with a fixed order a run would
    time little more than three queries — and which three is the seed's
    choice (measured: 18 % quartile spread of p50 over ten seeds).
    """
    rng = seeded_rng(derive_seed(seed, "zipf"))
    weights = np.array([1.0 / (rank + 1) ** exponent for rank in range(count)])
    cumulative = np.cumsum(weights / weights.sum())
    while True:
        holder = rng.permutation(count)
        for _ in range(ZIPF_REDEAL_EVERY):
            rank = int(np.searchsorted(cumulative, rng.random(), side="right"))
            yield int(holder[min(rank, count - 1)])


# --------------------------------------------------------------- write stream
def write_batches(lake: DataLake, seed: int) -> Iterator[list[TableEvent]]:
    """Endless stream of 4-event batches: one add, two replaces, one remove.

    The generator tracks table membership itself, so every event is valid
    against the lake state all earlier batches produce — no operation fails.
    The remove retires the table added two batches earlier, which keeps the
    lake size steady; until one exists a third replace takes its place.
    """
    rng = seeded_rng(derive_seed(seed, "write-stream"))
    originals = {table.name: table for table in lake.tables() if table.num_rows >= 3}
    names = sorted(originals)
    added: list[str] = []
    batch_index = 0
    while True:
        events: list[TableEvent] = []
        source = originals[names[int(rng.integers(len(names)))]]
        new_name = f"ingest_{batch_index:05d}__{source.name}"
        events.append(TableEvent("add", new_name, sample_rows(source, rng, name=new_name)))
        replaces = 2 if len(added) >= 2 else 3
        for position in rng.choice(len(names), size=replaces, replace=False):
            name = names[int(position)]
            events.append(
                TableEvent("replace", name, sample_rows(originals[name], rng, name=name))
            )
        if len(added) >= 2:
            events.append(TableEvent("remove", added.pop(0)))
        added.append(new_name)
        batch_index += 1
        yield events


# ------------------------------------------------------------- embedding pool
#: Leading columns of each pool table that are serialized and embedded.
POOL_COLUMNS = 4


@dataclass
class TuplePool:
    """Serialized tuples of a tall ``tus`` lake, ready to be embedded."""

    texts: list[str]
    table_ids: list[str]
    query_texts: list[str]


def tuple_pool(seed: int, scale: Scale) -> TuplePool:
    """``pool_tuples`` serialized lake tuples plus one query table's tuples.

    Tall tables (hundreds of rows each) from several non-unionable bases, so
    per-table pruning has real groups to rank within.  Tuples are serialized
    over their table's first :data:`POOL_COLUMNS` columns — the schema width
    of the serve workloads' query tables — which also halves the set-up's
    embedding time; Algorithm 2 only ever sees the 768-d vectors.
    """
    from repro.embeddings.serialization import serialize_tuple

    benchmark = generate_tus_benchmark(
        num_base_tables=4,
        # Derived tables keep up to 60 % of the base rows (30 % on average),
        # so 4 x 12 tables hold ~3.6x the pool; the shortfall check below
        # turns an (astronomically unlikely) short draw into a loud error.
        base_rows=max(40, scale.pool_tuples // 4),
        lake_tables_per_base=12,
        num_queries=4,
        seed=derive_seed(seed, "tuple-pool"),
    )
    refs = [
        (table, position)
        for table in benchmark.lake.tables()
        for position in range(table.num_rows)
    ]
    if len(refs) < scale.pool_tuples:
        raise RuntimeError(
            f"tuple pool generator produced {len(refs)} < {scale.pool_tuples} tuples"
        )
    order = seeded_rng(derive_seed(seed, "tuple-pool-order")).permutation(len(refs))
    kept = [refs[int(i)] for i in order[: scale.pool_tuples]]
    query = benchmark.query_tables[0]
    query_texts = [
        serialize_tuple(query.row_dict(position), query.columns[:POOL_COLUMNS])
        for position in range(min(query.num_rows, 30))
    ]
    return TuplePool(
        texts=[
            serialize_tuple(table.row_dict(position), table.columns[:POOL_COLUMNS])
            for table, position in kept
        ],
        table_ids=[table.name for table, _ in kept],
        query_texts=query_texts,
    )
