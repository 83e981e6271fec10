"""The :class:`Discovery` facade: one front door to the whole system.

``Discovery.from_config(cfg).attach(lake)`` resolves every component named by
a :class:`~repro.api.config.DiscoveryConfig` through the registries, wires the
:class:`~repro.core.pipeline.DustPipeline` and one searcher plus one result
cache per backend (sized and :class:`~repro.serving.store.IndexStore`-backed
as the ``serving`` section says; cache-less and in-process without one)
exactly as the hand-written call sites used to, and serves fluent queries::

    discovery = Discovery.from_config({"searcher": {"name": "overlap"}})
    discovery.attach(benchmark.lake)
    result = discovery.query(table).k(10).backend("starmie").run()
    print(result.to_json())

Selections are bit-identical to manually-wired ``DustPipeline`` runs: the
facade builds the same objects and calls the same entry points, it only
removes the wiring boilerplate.
"""

from __future__ import annotations

import inspect
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.api.config import ComponentSpec, DiscoveryConfig
from repro.api.schema import RESULT_SCHEMA_VERSION, dump_result
from repro.api.registry import (
    BENCHMARKS,
    COLUMN_ENCODERS,
    DIVERSIFIERS,
    SEARCHERS,
    TUPLE_ENCODERS,
    registry_catalog,
)
from repro.core.pipeline import DustPipeline, DustResult
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.embeddings.contextual import ContextualEncoder
from repro.search.base import SearchResult, TableUnionSearcher
from repro.search.sharded import ShardedSearcher
from repro.serving.store import IndexStore
from repro.utils.errors import ConfigurationError
from repro.utils.timing import timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ingest -> api)
    from repro.ingest.controller import IngestController

#: Reduced-scale shape overrides applied by :func:`build_benchmark` so CLI and
#: CI invocations stay laptop-sized; pass explicit overrides for larger runs.
_BENCHMARK_SCALE: dict[str, dict[str, int]] = {
    "tus": {"num_base_tables": 6, "base_rows": 60, "lake_tables_per_base": 6},
    "tus-sampled": {"num_base_tables": 6, "base_rows": 60, "lake_tables_per_base": 6},
    "santos": {"num_base_tables": 6, "base_rows": 60, "lake_tables_per_base": 6},
    "imdb": {"num_movies": 200, "num_lake_tables": 8, "rows_per_table": 50, "query_rows": 20},
}


def build_benchmark(name: str, *, num_queries: int = 2, seed: int = 3, **overrides: Any):
    """Build a registered benchmark at CLI-friendly scale.

    ``num_queries``/``seed`` are forwarded when the generator accepts them
    (the IMDB case study, for instance, always has exactly one query table).
    """
    factory = BENCHMARKS.get(name)
    accepted = set(inspect.signature(factory).parameters)
    kwargs: dict[str, Any] = dict(_BENCHMARK_SCALE.get(name.strip().lower(), {}))
    kwargs.update(overrides)
    if "num_queries" in accepted:
        kwargs.setdefault("num_queries", num_queries)
    if "seed" in accepted:
        kwargs.setdefault("seed", seed)
    unknown = set(kwargs) - accepted
    if unknown:
        raise ConfigurationError(
            f"benchmark generator {name!r} does not accept parameters {sorted(unknown)}"
        )
    return factory(**kwargs)


@dataclass
class ResultSet:
    """A :class:`~repro.core.pipeline.DustResult` plus run provenance."""

    result: DustResult
    #: Which config/backend/lake produced this result (all content-addressed).
    provenance: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- delegation
    @property
    def query_table_name(self) -> str:
        return self.result.query_table_name

    @property
    def search_results(self) -> list[SearchResult]:
        return self.result.search_results

    @property
    def selected_tuples(self):
        return self.result.selected_tuples

    @property
    def selected_indices(self) -> list[int]:
        return self.result.selected_indices

    @property
    def timings(self) -> dict[str, float]:
        return self.result.timings

    def __len__(self) -> int:
        return len(self.result.selected_tuples)

    def selections(self) -> list[tuple[str, int]]:
        """``(source table, source row)`` of every selected tuple."""
        return [
            (aligned.source_table, aligned.source_row)
            for aligned in self.result.selected_tuples
        ]

    def as_table(self, query_table: Table, *, name: str | None = None) -> Table:
        return self.result.as_table(query_table, name=name)

    def diversity(self, *, metric: str = "cosine") -> dict[str, float]:
        return self.result.diversity(metric=metric)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        """The version-1 result payload of :mod:`repro.api.schema`.

        This is the *specified* result schema: ``schema_version`` names the
        payload format, ``provenance`` records which config/backend/lake
        produced it, and ``search_results`` carries one
        ``{"table", "score", "rank"}`` triple per ranked candidate.  The
        ``search`` CLI output and the ``/v1/search`` wire response are both
        :func:`~repro.api.schema.dump_result` serializations of this dict.
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "query": self.result.query_table_name,
            "provenance": dict(self.provenance),
            "search_results": [
                {"table": hit.table_name, "score": hit.score, "rank": hit.rank}
                for hit in self.result.search_results
            ],
            "num_candidate_tuples": self.result.num_candidate_tuples,
            "selections": [list(pair) for pair in self.selections()],
            "selected_rows": [
                dict(aligned.values) for aligned in self.result.selected_tuples
            ],
            "timings": dict(self.result.timings),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        if indent == 2:
            return dump_result(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)


class DiscoveryQuery:
    """Fluent single/multi-query builder returned by :meth:`Discovery.query`."""

    def __init__(self, discovery: "Discovery", table: Table | None = None) -> None:
        self._discovery = discovery
        self._table = table
        self._k: int | None = None
        self._backend: str | None = None

    def table(self, table: Table) -> "DiscoveryQuery":
        """Set (or replace) the query table."""
        self._table = table
        return self

    def k(self, value: int) -> "DiscoveryQuery":
        """Number of diverse tuples to return (defaults to the config's k)."""
        if value <= 0:
            raise ConfigurationError(f"k must be positive, got {value}")
        self._k = int(value)
        return self

    def backend(self, name: str) -> "DiscoveryQuery":
        """Route this query through a different registered search backend."""
        SEARCHERS.get(name)  # fail fast on unknown names
        self._backend = name
        return self

    def run(self, table: Table | None = None) -> ResultSet:
        """Execute Algorithm 1 for the configured query table."""
        query_table = table if table is not None else self._table
        if query_table is None:
            raise ConfigurationError(
                "no query table: pass one to query()/table()/run()"
            )
        return self._discovery.run(query_table, k=self._k, backend=self._backend)

    def run_many(self, tables: Sequence[Table]) -> list[ResultSet]:
        """Execute Algorithm 1 for several query tables against one index."""
        return self._discovery.run_many(tables, k=self._k, backend=self._backend)


class _ResultCache:
    """One backend's bounded LRU of step-1 rankings, with hit/miss counters.

    Keyed by ``(searcher config fingerprint, indexed-lake digest, query
    fingerprint, k)``, all read live: a
    :class:`~repro.search.sharded.ShardedSearcher` folds its candidate budget
    into the config fingerprint, and the digest moves with every refresh.
    ``size`` 0 (no ``serving`` section) caches nothing and counts misses.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._entries: OrderedDict[tuple, list[SearchResult]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def search(
        self, searcher: TableUnionSearcher, query_table: Table, k: int
    ) -> list[SearchResult]:
        key = None
        if self.size:
            key = (
                searcher.config_fingerprint(),
                searcher.indexed_fingerprint,
                query_table.content_fingerprint(),
                int(k),
            )
            lake = searcher.lake
            with self._lock:
                cached = self._entries.get(key)
                # Ranked iff indexed *and* still in the lake: a hit naming a
                # table removed since the last refresh is served as a miss.
                if cached is not None and all(hit.table_name in lake for hit in cached):
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return list(cached)
        results = searcher.search(query_table, k)
        # Only rankings of the lake exactly as indexed are kept, so a kept
        # one can go stale only through a removed ranked table (checked above).
        keep = key is not None and not searcher.drifted
        with self._lock:
            self._misses += 1
            if keep:
                self._entries[key] = list(results)
                self._entries.move_to_end(key)
                while len(self._entries) > self.size:
                    self._entries.popitem(last=False)
        return list(results)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "size": len(self._entries)}


class Discovery:
    """Builds and serves a configured discovery deployment.

    Components (encoders, diversifier, pipeline config) are resolved once at
    construction; search backends are built and indexed lazily per backend
    name when :meth:`attach`-ed to a lake, each with its own result cache —
    warmed through the persistent index store when the ``serving`` section
    names one.  When the attached lake mutates, :meth:`refresh` marks every
    built backend stale and each re-synchronises (delta index update +
    result-cache drop) lazily on its next query.
    """

    def __init__(self, config: DiscoveryConfig | None = None) -> None:
        self.config = config or DiscoveryConfig()
        self._pipeline_config = self.config.pipeline_config()
        self._tuple_encoder = TUPLE_ENCODERS.create(
            self.config.tuple_encoder.name, **self.config.tuple_encoder.params
        )
        self._column_encoder = self._build_column_encoder(self.config.column_encoder)
        self._diversifier = self._build_diversifier(self.config.diversifier)
        serving = self.config.serving
        self._store = (
            IndexStore(serving["store_dir"])
            if serving is not None and serving.get("store_dir")
            else None
        )
        # No serving section: the same code path with no result cache.
        self._cache_size = serving["cache_size"] if serving is not None else 0
        self._lake: DataLake | None = None
        #: The warmed searcher and the result cache of every built backend.
        self._searchers: dict[str, TableUnionSearcher] = {}
        self._caches: dict[str, _ResultCache] = {}
        self._pipelines: dict[str, DustPipeline] = {}
        #: Backends whose index predates a :meth:`refresh` call; each one
        #: re-synchronises lazily the next time it serves a query.
        self._stale_backends: set[str] = set()
        #: Lazily-built streaming write path (see :meth:`ingest`).
        self._ingest = None
        self._closed = False

    # ------------------------------------------------------------ construction
    @classmethod
    def from_config(
        cls, config: "DiscoveryConfig | Mapping[str, Any] | str | Path | None" = None
    ) -> "Discovery":
        """Build a facade from a config object, dict, or JSON file path."""
        if config is None or isinstance(config, DiscoveryConfig):
            return cls(config)
        if isinstance(config, Mapping):
            return cls(DiscoveryConfig.from_dict(config))
        if isinstance(config, (str, Path)):
            return cls(DiscoveryConfig.from_file(config))
        raise ConfigurationError(
            f"from_config() accepts a DiscoveryConfig, mapping or path, got {config!r}"
        )

    def _build_column_encoder(self, spec: ComponentSpec):
        params = dict(spec.params)
        base = params.get("base")
        if isinstance(base, (str, Mapping)):
            base_spec = ComponentSpec.from_value(base, section="column_encoder.base")
            # The same spec builds an identical encoder: share the instance,
            # so one weight set and one text memo serve both stages.
            params["base"] = (
                self._tuple_encoder
                if base_spec == self.config.tuple_encoder
                else TUPLE_ENCODERS.create(base_spec.name, **base_spec.params)
            )
        elif base is None:
            # Column encoders wrap a base tuple encoder; share the config's.
            params["base"] = self._tuple_encoder
        self._column_base = params["base"]
        return COLUMN_ENCODERS.create(spec.name, **params)

    def _build_diversifier(self, spec: ComponentSpec):
        params = dict(spec.params)
        if spec.name == "dust" and "config" not in params:
            params["config"] = self.config.dust_config()
        return DIVERSIFIERS.create(spec.name, **params)

    @property
    def tuple_encoder(self):
        """The config's tuple encoder instance."""
        return self._tuple_encoder

    @property
    def column_encoder(self):
        """The config's column encoder instance."""
        return self._column_encoder

    def diversifier(self, name: str | None = None, **params: Any):
        """The config's diversifier, or any registered one built by name.

        A ``dust`` diversifier without an explicit ``config`` parameter
        inherits this deployment's dust configuration — the single place that
        wiring rule lives, shared by the facade and the CLI.
        """
        if name is None and not params:
            return self._diversifier
        if name is None:
            name = self.config.diversifier.name
        return self._build_diversifier(ComponentSpec(name, params))

    # -------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "Discovery is closed; build a new facade to serve more queries"
            )

    def close(self) -> None:
        """Release every resource this deployment holds.

        Result caches and built searchers/pipelines are released, and the
        index-store handle is detached.  Serving a query (or attaching a
        lake) afterwards raises
        :class:`~repro.utils.errors.ConfigurationError`; calling ``close``
        again is a no-op.  The facade is a context manager, so long-lived
        callers — the resident server, multi-query ``run_many`` drivers —
        can scope the deployment with ``with``.
        """
        if self._closed:
            return
        self._closed = True
        self._ingest = None
        self._searchers.clear()
        self._caches.clear()
        self._pipelines.clear()
        self._stale_backends.clear()
        self._store = None
        self._lake = None

    def __enter__(self) -> "Discovery":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ----------------------------------------------------------------- attach
    def attach(self, lake: DataLake) -> "Discovery":
        """Bind a data lake and index the configured default backend."""
        self._check_open()
        self._lake = lake
        self._searchers.clear()
        self._caches.clear()
        self._pipelines.clear()
        self._stale_backends.clear()
        # The controller targets the previous lake; drop it so the next
        # ingest() call rebuilds against the new attachment.
        self._ingest = None
        self.searcher()  # the configured default
        return self

    def refresh(self) -> "Discovery":
        """Declare the attached lake mutated; backends re-sync lazily.

        Call after mutating the attached lake
        (``add_table``/``remove_table``/``replace_table``/``touch``).  Every
        already-built backend is marked stale; each one delta-updates its
        index (and, when serving, drops its now-stale result cache) the next
        time a query routes through it — so a deployment with five indexed
        backends pays one incremental update per backend *actually queried*,
        not five up front.  Backends not yet built simply index the current
        lake on first use, as always.
        """
        self.lake  # raises when not attached
        self._stale_backends.update(self._searchers)
        return self

    def resync(self) -> list[str]:
        """Eagerly re-synchronise every built backend with the lake's content.

        The eager complement of :meth:`refresh`'s lazy re-sync, for callers
        that *want* to pay the delta updates now rather than on the next
        query — the server's background maintenance loop runs this between
        request bursts so queries never stall on an index update.  Reads each
        searcher's :attr:`~repro.search.base.TableUnionSearcher.drifted` (no
        prior :meth:`refresh` call required) and returns the backend names
        it re-synced.
        """
        self._check_open()
        self.lake  # raises when not attached
        moved: list[str] = []
        for key, searcher in self._searchers.items():
            if searcher.drifted or key in self._stale_backends:
                self._sync_backend(key)
                moved.append(key)
        return moved

    @property
    def built_backends(self) -> list[str]:
        """Names of the backends already built for this deployment, sorted."""
        return sorted(self._searchers)

    def ingest(self, *, gate: Any = None) -> "IngestController":
        """The deployment's streaming write path (built lazily, one per lake).

        Returns an :class:`~repro.ingest.controller.IngestController`, which
        keeps the last submitted event per table and applies bounded
        micro-batches atomically to the attached lake plus every built
        backend's ``update_index`` path, checkpointed for journal compaction.
        Pass the serving layer's ``gate`` so applied batches exclude
        in-flight queries; calling again with a gate rebinds the existing
        controller.
        """
        self._check_open()
        self.lake  # raises when not attached
        if self._ingest is None:
            from repro.ingest.controller import IngestController

            self._ingest = IngestController(self, gate=gate)
        elif gate is not None:
            self._ingest.gate = gate
        return self._ingest

    def lake_health(self) -> dict[str, Any] | None:
        """Write-path health of the attached lake (``None`` when detached).

        Version, journal depth/floor, entries dropped by the bounded-journal
        trim, and retained compaction-checkpoint versions — the numbers an
        operator needs to judge whether ``changes_since`` consumers are at
        risk of the full-rebuild floor.
        """
        if not self.is_attached:
            return None
        lake = self.lake
        return {
            "name": lake.name,
            "version": lake.version,
            "num_tables": lake.num_tables,
            "journal_depth": lake.journal_depth,
            "journal_floor": lake.journal_floor,
            "journal_dropped": lake.journal_dropped,
            "checkpoints": lake.checkpoint_versions,
        }

    def encoder_memo_stats(self) -> dict[str, Any]:
        """Text-memo counters ``{hits, misses, entries, bytes, budget_bytes}``.

        ``column`` holds the column base's column-sentence memo and ``tuple``
        the tuple encoder's tuple memo (zeros for a stage whose encoder is
        not contextual); the five top-level keys are their sums.
        """
        keys = ("hits", "misses", "entries", "bytes", "budget_bytes")
        stages = {
            stage: (
                encoder.memo_stats(stage)
                if isinstance(encoder, ContextualEncoder)
                else dict.fromkeys(keys, 0)
            )
            for stage, encoder in (("column", self._column_base), ("tuple", self._tuple_encoder))
        }
        return {key: sum(stats[key] for stats in stages.values()) for key in keys} | stages

    def service_stats(self) -> dict[str, dict[str, int]]:
        """Result-cache ``{hits, misses, size}`` per built backend."""
        return {key: cache.stats() for key, cache in sorted(self._caches.items())}

    def _sync_backend(self, key: str) -> None:
        """The one place a backend re-syncs: refresh, drop its result cache,
        persist — cache first, so a failed save cannot serve mixed-era rankings."""
        searcher = self._searchers[key]
        if searcher.drifted:
            searcher.refresh()
            self._caches[key].clear()
            searcher.persist()
        self._stale_backends.discard(key)

    @property
    def store(self) -> IndexStore | None:
        """The deployment's persistent index store (None when not configured)."""
        return self._store

    @property
    def lake(self) -> DataLake:
        if self._lake is None:
            raise ConfigurationError(
                "Discovery is not attached to a data lake; call attach(lake) first"
            )
        return self._lake

    @property
    def is_attached(self) -> bool:
        return self._lake is not None

    # ---------------------------------------------------------------- backends
    def _backend_key(self, backend: str | None) -> str:
        key = (backend or self.config.searcher.name).strip().lower()
        SEARCHERS.get(key)  # unknown name -> ConfigurationError
        return key

    def _build_searcher(self, backend: str) -> TableUnionSearcher:
        # The default backend keeps its configured parameters; alternates are
        # built with registry defaults.
        spec = self.config.searcher
        params = dict(spec.params) if backend == spec.name else {}

        def factory() -> TableUnionSearcher:
            return SEARCHERS.create(backend, **params)

        # One executor: flat is one shard, exact is no candidate budget, and
        # only the flat exact deployment skips it for the bare backend.
        sharding, cascade = self.config.sharding, self.config.cascade
        num_shards = sharding["num_shards"] if sharding is not None else 1
        budget = None
        if cascade is not None and cascade["mode"] == "approx":
            budget = cascade["candidate_budget"]
        if num_shards == 1 and budget is None:
            return factory()
        return ShardedSearcher(factory, num_shards=num_shards, candidate_budget=budget)

    def searcher(self, backend: str | None = None) -> TableUnionSearcher:
        """The lazily built, indexed and re-synced searcher serving ``backend``."""
        self._check_open()
        key = self._backend_key(backend)
        searcher = self._searchers.get(key)
        if searcher is None:
            searcher = self._build_searcher(key)
            searcher.warm(self.lake, self._store)
            self._caches[key] = _ResultCache(self._cache_size)
            self._searchers[key] = searcher
        elif key in self._stale_backends:
            self._sync_backend(key)
        return searcher

    def pipeline(self, backend: str | None = None) -> DustPipeline:
        """The wired :class:`DustPipeline` serving ``backend``."""
        key = self._backend_key(backend)
        # Always route through searcher(): a cached pipeline holds the
        # searcher by reference, and the backend may have a pending refresh()
        # delta to apply before serving another query.
        searcher = self.searcher(key)
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            pipeline = DustPipeline(
                searcher=searcher,
                column_encoder=self._column_encoder,
                tuple_encoder=self._tuple_encoder,
                config=self._pipeline_config,
                diversifier=self._diversifier,
            )
            self._pipelines[key] = pipeline
        return pipeline

    # ----------------------------------------------------------------- search
    def search(
        self, query_table: Table, k: int | None = None, *, backend: str | None = None
    ) -> list[SearchResult]:
        """Step-1 only: ranked unionable tables (LRU-cached when serving)."""
        key = self._backend_key(backend)
        searcher = self.searcher(key)
        k = k if k is not None else self._pipeline_config.num_search_tables
        return self._caches[key].search(searcher, query_table, k)

    def search_tables(
        self, query_table: Table, k: int | None = None, *, backend: str | None = None
    ) -> list[Table]:
        """Like :meth:`search` but resolving the ranked names to tables."""
        return [
            self.lake.get(hit.table_name)
            for hit in self.search(query_table, k, backend=backend)
        ]

    # -------------------------------------------------------------------- run
    def query(self, table: Table | None = None) -> DiscoveryQuery:
        """Start a fluent query: ``d.query(t).k(10).backend("starmie").run()``."""
        return DiscoveryQuery(self, table)

    def _provenance(self, backend: str, k: int | None) -> dict[str, Any]:
        return {
            "backend": backend,
            "k": k if k is not None else self._pipeline_config.k,
            "config_fingerprint": self.config.fingerprint(),
            "searcher_fingerprint": self.searcher(backend).config_fingerprint(),
            "lake": self.lake.name,
            "lake_fingerprint": self.lake.fingerprint(),
        }

    def run(
        self, query_table: Table, *, k: int | None = None, backend: str | None = None
    ) -> ResultSet:
        """Run Algorithm 1 end to end for one query table."""
        key = self._backend_key(backend)
        result = self._run(key, query_table, k, keep_distance_context=True)
        return ResultSet(result=result, provenance=self._provenance(key, k))

    def run_many(
        self,
        query_tables: Sequence[Table],
        *,
        k: int | None = None,
        backend: str | None = None,
    ) -> list[ResultSet]:
        """Run Algorithm 1 for several queries against one built index.

        A loop over the single-query path: each query's step 1 is timed on
        its own, and its distance context is released so retained results
        stay small.
        """
        key = self._backend_key(backend)
        results = [
            self._run(key, query_table, k, keep_distance_context=False)
            for query_table in query_tables
        ]
        provenance = self._provenance(key, k)
        return [
            ResultSet(result=result, provenance=dict(provenance))
            for result in results
        ]

    def _run(
        self, key: str, query_table: Table, k: int | None, *, keep_distance_context: bool
    ) -> DustResult:
        pipeline = self.pipeline(key)
        # Step 1 runs here, through the result cache; the pipeline reports its time.
        search_results, search_seconds = timed(self.search, query_table, backend=key)
        return pipeline.run(
            query_table,
            k=k,
            keep_distance_context=keep_distance_context,
            search_results=search_results,
            search_seconds=search_seconds,
        )

    # ------------------------------------------------------------------- info
    def info(self) -> dict[str, Any]:
        """Everything a caller needs to know about this deployment."""
        from repro import __version__

        return {
            "version": __version__,
            "config": self.config.to_dict(),
            "config_fingerprint": self.config.fingerprint(),
            # Every component registry in one place — searchers and
            # diversifiers alongside the benchmark and workload generators —
            # so ``info``/``/v1/info`` stay the single discoverability
            # surface as registries are added.
            "registries": registry_catalog(),
            "lake": (
                {
                    "name": self.lake.name,
                    "num_tables": self.lake.num_tables,
                    "version": self.lake.version,
                    "fingerprint": self.lake.fingerprint(),
                    "journal_depth": self.lake.journal_depth,
                    "journal_floor": self.lake.journal_floor,
                    "journal_dropped": self.lake.journal_dropped,
                    "checkpoints": self.lake.checkpoint_versions,
                }
                if self.is_attached
                else None
            ),
            "ingest": self._ingest.stats if self._ingest is not None else None,
            "indexed_backends": self.built_backends,
            "serving": self.config.serving is not None,
            "store": self._store.stats() if self._store is not None else None,
            "num_shards": (
                self.config.sharding["num_shards"]
                if self.config.sharding is not None
                else 1
            ),
            "cascade": (
                self.config.cascade["mode"]
                if self.config.cascade is not None
                else None
            ),
        }
