"""Tests for the unified discovery API: registries, config, facade."""

import sys

import pytest

from repro import DustPipeline
from repro.api import (
    ComponentSpec,
    Discovery,
    DiscoveryConfig,
    Registry,
    available_benchmarks,
    available_column_encoders,
    available_diversifiers,
    available_searchers,
    available_tuple_encoders,
)
from repro.api.facade import ResultSet, build_benchmark
from repro.api.registry import DIVERSIFIERS, SEARCHERS, TUPLE_ENCODERS
from repro.benchgen import generate_ugen_benchmark
from repro.core import DustConfig, DustDiversifier
from repro.datalake import DataLake, Table
from repro.embeddings import CellLevelColumnEncoder, FastTextLikeModel, GloveLikeModel
from repro.embeddings import contextual
from repro.search import StarmieSearcher, TableUnionSearcher, ValueOverlapSearcher
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def small_benchmark():
    return generate_ugen_benchmark(
        num_queries=2,
        unionable_per_query=4,
        non_unionable_per_query=4,
        rows_per_table=6,
        seed=9,
    )


#: A small, fast deployment used by the facade tests.
SMALL_CONFIG = {
    "searcher": {"name": "overlap"},
    "column_encoder": {"name": "cell-level", "base": "fasttext"},
    "tuple_encoder": {"name": "glove", "dimension": 64},
    "pipeline": {"k": 5, "num_search_tables": 4},
    "dust": {"prune_limit": 200},
}


class TestRegistries:
    def test_every_builtin_component_is_registered(self):
        assert {"overlap", "starmie", "d3l", "santos", "oracle"} <= set(
            available_searchers()
        )
        assert {"dust", "gmc", "gne", "clt", "swap", "maxmin", "maxsum", "random"} <= set(
            available_diversifiers()
        )
        assert {"fasttext", "glove", "bert", "roberta", "sbert"} <= set(
            available_tuple_encoders()
        )
        assert {"cell-level", "column-level", "starmie"} <= set(
            available_column_encoders()
        )
        assert {"tus", "tus-sampled", "santos", "ugen", "imdb"} <= set(
            available_benchmarks()
        )

    def test_lookup_is_case_insensitive(self):
        assert SEARCHERS.get("Starmie") is StarmieSearcher
        assert SEARCHERS.get("  OVERLAP ") is ValueOverlapSearcher

    def test_unknown_name_error_lists_available(self):
        with pytest.raises(ConfigurationError, match="unknown searcher 'nope'"):
            SEARCHERS.get("nope")
        with pytest.raises(ConfigurationError, match="overlap"):
            SEARCHERS.get("nope")

    def test_create_builds_instances_with_params(self):
        searcher = SEARCHERS.create("overlap", num_hashes=32)
        assert isinstance(searcher, ValueOverlapSearcher)
        assert searcher.num_hashes == 32
        encoder = TUPLE_ENCODERS.create("glove", dimension=32)
        assert encoder.info.dimension == 32

    def test_create_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            SEARCHERS.create("overlap", not_a_parameter=1)

    def test_duplicate_registration_is_rejected(self):
        registry = Registry("thing")
        registry.register("a")(object)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a")(type("Other", (), {}))
        # Re-registering the *same* object (module reload) is fine.
        registry.register("a")(object)

    def test_empty_name_is_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ConfigurationError):
            registry.register("  ")(object)

    def test_failed_module_import_stays_retryable(self):
        """A broken implementation module must keep raising its real error,
        not poison the registry into reporting an empty component list."""
        registry = Registry("thing", modules=("definitely_not_a_module_xyz",))
        with pytest.raises(ModuleNotFoundError):
            registry.names()
        with pytest.raises(ModuleNotFoundError):
            registry.names()

    def test_membership_and_iteration(self):
        assert "overlap" in SEARCHERS
        assert "nope" not in SEARCHERS
        assert list(SEARCHERS) == available_searchers()
        assert len(SEARCHERS) == len(available_searchers())


class TestComponentSpec:
    def test_from_string(self):
        spec = ComponentSpec.from_value("Starmie", section="searcher")
        assert spec.name == "starmie"
        assert spec.params == {}

    def test_from_flat_mapping(self):
        spec = ComponentSpec.from_value(
            {"name": "overlap", "num_hashes": 16}, section="searcher"
        )
        assert spec.params == {"num_hashes": 16}

    def test_from_nested_params_mapping(self):
        spec = ComponentSpec.from_value(
            {"name": "overlap", "params": {"num_hashes": 16}}, section="searcher"
        )
        assert spec.params == {"num_hashes": 16}

    def test_missing_name_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'name'"):
            ComponentSpec.from_value({"num_hashes": 16}, section="searcher")


class TestDiscoveryConfig:
    def test_defaults_are_valid_and_canonical(self):
        config = DiscoveryConfig()
        payload = config.to_dict()
        assert payload["searcher"] == {"name": "overlap"}
        assert payload["pipeline"] == {
            "num_search_tables": 10,
            "k": 30,
            "min_query_rows": 3,
        }
        assert payload["dust"]["prune_limit"] == 2500
        assert "serving" not in payload

    def test_dict_round_trip(self):
        config = DiscoveryConfig.from_dict(SMALL_CONFIG)
        assert DiscoveryConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip_and_fingerprint(self):
        config = DiscoveryConfig.from_dict(SMALL_CONFIG)
        restored = DiscoveryConfig.from_json(config.to_json())
        assert restored == config
        assert restored.fingerprint() == config.fingerprint()
        other = DiscoveryConfig.from_dict({**SMALL_CONFIG, "pipeline": {"k": 6}})
        assert other.fingerprint() != config.fingerprint()

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        config = DiscoveryConfig.from_dict(SMALL_CONFIG)
        path.write_text(config.to_json())
        assert DiscoveryConfig.from_file(path) == config
        with pytest.raises(ConfigurationError, match="cannot read"):
            DiscoveryConfig.from_file(tmp_path / "missing.json")

    def test_invalid_json_is_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid discovery config JSON"):
            DiscoveryConfig.from_json("{not json")

    def test_unknown_section_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown discovery config sections"):
            DiscoveryConfig.from_dict({"searhcer": {"name": "overlap"}})

    def test_unknown_section_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            DiscoveryConfig.from_dict({"pipeline": {"kk": 3}})

    def test_unknown_component_name_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown searcher"):
            DiscoveryConfig.from_dict({"searcher": {"name": "faiss"}})
        with pytest.raises(ConfigurationError, match="unknown diversifier"):
            DiscoveryConfig(diversifier=ComponentSpec("mmr"))

    def test_invalid_values_fail_at_construction(self):
        with pytest.raises(ConfigurationError):
            DiscoveryConfig.from_dict({"pipeline": {"k": 0}})
        with pytest.raises(ConfigurationError, match="linkage"):
            DiscoveryConfig.from_dict({"dust": {"linkage": "avg"}})

    def test_unknown_component_parameter_names_fail_eagerly(self):
        """Regression: a typo'd constructor parameter must fail at config
        construction, not later at attach()."""
        with pytest.raises(ConfigurationError, match="unknown parameters for searcher"):
            DiscoveryConfig.from_dict({"searcher": {"name": "overlap", "bogus": 1}})
        with pytest.raises(ConfigurationError, match="tuple_encoder"):
            DiscoveryConfig.from_dict({"tuple_encoder": {"name": "glove", "dim": 8}})

    def test_invalid_serving_values_fail_eagerly(self):
        with pytest.raises(ConfigurationError, match="cache_size"):
            DiscoveryConfig.from_dict({"serving": {"cache_size": -5}})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("serving", "cache_size", "16"),
            ("sharding", "num_shards", True),
            ("cascade", "candidate_budget", True),
            ("server", "port", True),
            ("server", "max_inflight", True),
            ("pipeline", "k", "5"),
            ("pipeline", "k", True),
            ("pipeline", "num_search_tables", 2.5),
            ("dust", "prune_limit", "5"),
            ("dust", "prune_limit", True),
        ],
    )
    def test_mistyped_numbers_are_configuration_errors(self, section, key, value):
        """A string where a number belongs, or a bool where an integer
        belongs, is a ConfigurationError naming the key — never a TypeError
        (which the CLI would print as a traceback), never served as 1."""
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            DiscoveryConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize(
        "section, key",
        [
            ("serving", "max_workers"),
            ("serving", "chunk_size"),
            ("serving", "parallelism"),
            ("serving", "parallel_min_seconds"),
            ("sharding", "build_workers"),
            ("sharding", "build_parallelism"),
            ("sharding", "parallel_min_seconds"),
            ("store", "pool_size"),
            ("store", "mmap"),
            ("store", "lazy_shards"),
            ("store", "backend"),
            ("ingest", "max_latency_seconds"),
            ("sharding", "strategy"),
            ("cascade", "prefilter"),
            ("cascade", "escalation_margin"),
            ("cascade", "projection_dim"),
            ("cascade", "num_hashes"),
            ("cascade", "num_bands"),
            ("cascade", "seed"),
            ("server", "queue_timeout_seconds"),
            ("server", "retry_after_seconds"),
            ("server", "maintenance_interval_seconds"),
            ("server", "maintenance_idle_seconds"),
            ("server", "prewarm_queries"),
        ],
    )
    def test_removed_execution_knobs_are_rejected(self, section, key):
        """Execution strategy is measured, not configured, the store has one
        layout, the write path has fixed batch bounds, the prefilter and
        partitioner have fixed parameters and the server's waits are module
        constants: an old config file naming a removed knob fails loudly, naming the section and the key —
        or the whole ``store`` / ``ingest`` section, which is gone."""
        with pytest.raises(ConfigurationError) as raised:
            DiscoveryConfig.from_dict({section: {key: 1}})
        message = str(raised.value).split(";")[0]
        if section in ("store", "ingest"):
            assert message == f"unknown discovery config sections: [{section!r}]"
        else:
            assert f"unknown keys in config section {section!r}" in message
            assert key in message

    def test_optional_section_key_surface(self):
        """Snapshot of every key of the four optional sections (10 keys): a
        new knob must show up here as a visible diff."""
        surface = {
            section: sorted(DiscoveryConfig.from_dict({section: {}}).to_dict()[section])
            for section in ("serving", "sharding", "cascade", "server")
        }
        assert surface == {
            "serving": ["cache_size", "store_dir"],
            "sharding": ["num_shards"],
            "cascade": ["candidate_budget", "mode"],
            "server": ["event_log", "host", "maintenance", "max_inflight", "port"],
        }
        assert sum(len(keys) for keys in surface.values()) == 10

    def test_serving_section_is_normalised(self):
        config = DiscoveryConfig.from_dict(
            {"serving": {"store_dir": "/tmp/store", "cache_size": 16}}
        )
        assert config.serving["store_dir"] == "/tmp/store"
        assert config.serving["cache_size"] == 16
        assert set(config.serving) == {"store_dir", "cache_size"}
        with pytest.raises(ConfigurationError, match="unknown keys"):
            DiscoveryConfig.from_dict({"serving": {"store": "x"}})

    def test_config_objects_resolve(self):
        config = DiscoveryConfig.from_dict(SMALL_CONFIG)
        assert config.pipeline_config().k == 5
        assert config.dust_config() == DustConfig(prune_limit=200)


class TestDiscoveryFacade:
    def test_facade_matches_manual_wiring_bit_for_bit(self, small_benchmark):
        lake = small_benchmark.lake
        query = small_benchmark.query_tables[0]
        discovery = Discovery.from_config(SMALL_CONFIG).attach(lake)
        facade_result = discovery.query(query).run()

        config = DiscoveryConfig.from_dict(SMALL_CONFIG)
        manual = DustPipeline(
            searcher=ValueOverlapSearcher(),
            column_encoder=CellLevelColumnEncoder(FastTextLikeModel()),
            tuple_encoder=GloveLikeModel(dimension=64),
            config=config.pipeline_config(),
            diversifier=DustDiversifier(config.dust_config()),
        ).index(lake)
        manual_result = manual.run(query)

        assert facade_result.selections() == [
            (t.source_table, t.source_row) for t in manual_result.selected_tuples
        ]
        assert facade_result.selected_indices == manual_result.selected_indices
        assert [hit.table_name for hit in facade_result.search_results] == [
            hit.table_name for hit in manual_result.search_results
        ]

    def test_fluent_query_options(self, small_benchmark):
        discovery = Discovery.from_config(SMALL_CONFIG).attach(small_benchmark.lake)
        query = small_benchmark.query_tables[0]
        result = discovery.query(query).k(3).run()
        assert len(result) == 3
        assert result.provenance["k"] == 3
        with pytest.raises(ConfigurationError):
            discovery.query(query).k(0)
        with pytest.raises(ConfigurationError):
            discovery.query(query).backend("nope")
        with pytest.raises(ConfigurationError, match="no query table"):
            discovery.query().run()

    def test_backend_override_switches_searcher(self, small_benchmark):
        discovery = Discovery.from_config(SMALL_CONFIG).attach(small_benchmark.lake)
        query = small_benchmark.query_tables[0]
        result = discovery.query(query).k(3).backend("starmie").run()
        assert result.provenance["backend"] == "starmie"
        assert isinstance(discovery.searcher("starmie"), StarmieSearcher)
        # The default backend keeps serving.
        assert isinstance(discovery.searcher(), ValueOverlapSearcher)

    def test_run_many_matches_run(self, small_benchmark):
        discovery = Discovery.from_config(SMALL_CONFIG).attach(small_benchmark.lake)
        queries = small_benchmark.query_tables
        batched = discovery.query().k(4).run_many(queries)
        singles = [discovery.query(query).k(4).run() for query in queries]
        assert [r.selections() for r in batched] == [r.selections() for r in singles]

    def test_attach_required(self, small_benchmark):
        discovery = Discovery.from_config(SMALL_CONFIG)
        assert not discovery.is_attached
        with pytest.raises(ConfigurationError, match="attach"):
            discovery.searcher()

    def test_serving_config_builds_store_backed_service(
        self, small_benchmark, tmp_path
    ):
        config = {
            **SMALL_CONFIG,
            "serving": {"store_dir": str(tmp_path / "store"), "cache_size": 32},
        }
        discovery = Discovery.from_config(config).attach(small_benchmark.lake)
        assert discovery.searcher().is_indexed
        assert discovery.searcher().store is discovery.store
        query = small_benchmark.query_tables[0]
        served = discovery.query(query).k(4).run()
        direct = Discovery.from_config(SMALL_CONFIG).attach(small_benchmark.lake)
        assert served.selections() == direct.query(query).k(4).run().selections()
        # The store now holds a persisted entry; a fresh facade loads it
        # without rebuilding.
        assert any((tmp_path / "store").rglob("manifest.json"))
        reloaded = Discovery.from_config(config).attach(small_benchmark.lake)
        assert reloaded.query(query).k(4).run().selections() == served.selections()
        # Repeat queries hit the backend's LRU cache.
        discovery.search(query)
        discovery.search(query)
        assert discovery.service_stats()["overlap"]["hits"] >= 1

    @pytest.mark.parametrize("serving", [None, {}, {"cache_size": 8}])
    def test_timings_report_real_search_time(self, small_benchmark, serving):
        """Step 1 runs through the facade's result cache, outside the
        pipeline's stage timer; its wall time must still land in ``timings``
        — cache hit or miss, with or without a ``serving`` section."""
        config = dict(SMALL_CONFIG)
        if serving is not None:
            config["serving"] = serving
        discovery = Discovery.from_config(config).attach(small_benchmark.lake)
        queries = small_benchmark.query_tables
        runs = [discovery.query(queries[0]).k(3).run() for _ in range(2)]  # miss, hit
        runs += discovery.query().k(3).run_many(queries)
        for result in runs:
            stages = {k: v for k, v in result.timings.items() if k != "total"}
            assert set(stages) == {"search", "alignment", "embedding", "diversification"}
            assert result.timings["search"] > 0.0
            assert result.timings["total"] == pytest.approx(sum(stages.values()))
        # A real backend search costs far more than copying a result list.
        assert runs[0].timings["search"] > 1e-4

    def test_result_set_serialization(self, small_benchmark):
        discovery = Discovery.from_config(SMALL_CONFIG).attach(small_benchmark.lake)
        query = small_benchmark.query_tables[0]
        result = discovery.query(query).k(3).run()
        payload = result.to_dict()
        assert payload["query"] == query.name
        assert payload["selections"] == [list(pair) for pair in result.selections()]
        assert len(payload["selected_rows"]) == 3
        assert set(payload["provenance"]) >= {"backend", "config_fingerprint", "k"}
        import json

        assert json.loads(result.to_json())["query"] == query.name

    def test_result_set_delegates(self, small_benchmark):
        discovery = Discovery.from_config(SMALL_CONFIG).attach(small_benchmark.lake)
        query = small_benchmark.query_tables[0]
        result = discovery.query(query).k(3).run()
        assert isinstance(result, ResultSet)
        assert result.query_table_name == query.name
        assert set(result.timings) >= {"search", "alignment", "embedding", "diversification"}
        scores = result.diversity()
        assert set(scores) >= {"average_diversity", "min_diversity"}
        table = result.as_table(query)
        assert table.columns == query.columns

    def test_info_reports_deployment(self, small_benchmark):
        discovery = Discovery.from_config(SMALL_CONFIG)
        assert discovery.info()["lake"] is None
        discovery.attach(small_benchmark.lake)
        info = discovery.info()
        assert info["lake"]["num_tables"] == small_benchmark.lake.num_tables
        assert info["indexed_backends"] == ["overlap"]
        assert info["config_fingerprint"] == discovery.config.fingerprint()

    def test_default_searcher_keeps_config_params(self, small_benchmark):
        config = {**SMALL_CONFIG, "searcher": {"name": "overlap", "num_hashes": 16}}
        discovery = Discovery.from_config(config).attach(small_benchmark.lake)
        assert discovery.searcher().num_hashes == 16

    def test_from_config_accepts_path(self, small_benchmark, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(DiscoveryConfig.from_dict(SMALL_CONFIG).to_json())
        discovery = Discovery.from_config(path)
        assert discovery.config == DiscoveryConfig.from_dict(SMALL_CONFIG)
        with pytest.raises(ConfigurationError, match="from_config"):
            Discovery.from_config(42)

    def test_diversifier_and_encoders_exposed(self):
        discovery = Discovery.from_config(SMALL_CONFIG)
        assert discovery.diversifier() is discovery.diversifier()
        dust = discovery.diversifier("dust")
        assert isinstance(dust, DustDiversifier)
        # The CLI path inherits the config's dust section automatically.
        assert dust.config == DustConfig(prune_limit=200)
        assert discovery.tuple_encoder.info.dimension == 64
        assert discovery.column_encoder.info.family.startswith("column")

    def test_discovery_feeds_evaluation_workloads(self, small_benchmark):
        from repro.evaluation import prepare_query_workloads

        discovery = Discovery.from_config(SMALL_CONFIG).attach(small_benchmark.lake)
        encoder = TUPLE_ENCODERS.create("glove", dimension=64)
        workloads = prepare_query_workloads(
            small_benchmark,
            small_benchmark.query_tables,
            encoder,
            discovery=discovery,
            num_search_tables=4,
        )
        assert set(workloads) == {t.name for t in small_benchmark.query_tables}
        assert all(w.num_candidates > 0 for w in workloads.values())


class TestEncoderMemo:
    """Repeated column sentences and tuples skip the contextual forward pass."""

    def test_column_base_shares_the_tuple_encoder_when_specs_match(self):
        discovery = Discovery()
        assert discovery.column_encoder._base is discovery.tuple_encoder
        other = Discovery.from_config(
            {"column_encoder": {"name": "column-level", "base": "bert"}}
        )
        assert other.column_encoder._base is not other.tuple_encoder
        assert other.column_encoder._base.info.name == "bert-like"

    def test_unchanged_lake_runs_no_forward_pass(self, small_benchmark, monkeypatch):
        lake = DataLake(small_benchmark.lake.tables(), name="memo-lake")
        discovery = Discovery.from_config(
            {"pipeline": {"k": 5, "num_search_tables": 4}}
        ).attach(lake)
        encoder = discovery.tuple_encoder
        forward_passes = []
        forward = encoder._forward  # the one forward seam: a row block of sequences
        monkeypatch.setattr(
            encoder,
            "_forward",
            lambda sequences: forward_passes.extend(sequences) or forward(sequences),
        )
        query = small_benchmark.query_tables[0]
        first = discovery.run(query)
        assert forward_passes
        forward_passes.clear()
        assert discovery.run(query).selections() == first.selections()
        assert forward_passes == []
        assert discovery.encoder_memo_stats()["hits"] > 0

        # A replaced result table: only the texts carrying its new value miss.
        name = first.search_results[0].table_name
        old = lake.get(name)
        marker = "zzreplacedvalue"
        rows = [(marker, *old.rows[0][1:]), *old.rows[1:]]
        lake.replace_table(Table(name, list(old.columns), rows))
        discovery.refresh()
        discovery.run(query)
        assert forward_passes
        assert all(marker in tokens for tokens in forward_passes)

    def test_tuple_churn_keeps_the_column_sentences(self, small_benchmark, monkeypatch):
        config = {"pipeline": {"k": 5, "num_search_tables": 4}}
        lake = DataLake(small_benchmark.lake.tables(), name="churn-lake")
        query = small_benchmark.query_tables[0]
        # One run's distinct column sentences, as the column stage looks them up.
        column_texts: dict[str, None] = {}
        in_column_stage = []
        get_many = contextual._TextMemo.get_many

        def recording_get_many(memo, texts):
            if in_column_stage:
                column_texts.update(dict.fromkeys(texts))
            return get_many(memo, texts)

        monkeypatch.setattr(contextual._TextMemo, "get_many", recording_get_many)

        def count_column_stage(discovery, forward_passes):
            """Wrap ``encode_columns``; return the sequences it forwards."""
            column_passes = []
            encode_columns = discovery.column_encoder.encode_columns

            def counted(columns):
                before = len(forward_passes)
                in_column_stage.append(True)
                try:
                    return encode_columns(columns)
                finally:
                    in_column_stage.clear()
                    column_passes.extend(forward_passes[before:])

            monkeypatch.setattr(discovery.column_encoder, "encode_columns", counted)
            return column_passes

        probe = Discovery.from_config(config).attach(lake)
        count_column_stage(probe, [])
        probe.run(query)
        assert column_texts
        row_bytes = 768 * 8
        budget = sum(row_bytes + sys.getsizeof(text) for text in column_texts)
        # The memos hold exactly one run's column sentences.
        monkeypatch.setattr(contextual, "MEMO_BUDGET_BYTES", budget)

        discovery = Discovery.from_config(config).attach(lake)
        encoder = discovery.tuple_encoder
        forward_passes = []
        forward = encoder._forward  # the one forward seam: a row block of sequences
        monkeypatch.setattr(
            encoder,
            "_forward",
            lambda sequences: forward_passes.extend(sequences) or forward(sequences),
        )
        column_passes = count_column_stage(discovery, forward_passes)
        first = discovery.run(query)
        assert column_passes
        # One-off tuple texts, more than the budget holds.
        churn = [f"churn tuple {i}" for i in range(budget // row_bytes + 8)]
        encoder.encode_many(churn)
        column_passes.clear()
        assert discovery.run(query).selections() == first.selections()
        assert column_passes == []


class TestBuildBenchmark:
    def test_builds_registered_benchmarks_at_small_scale(self):
        benchmark = build_benchmark("ugen", num_queries=2, seed=5)
        assert len(benchmark.query_tables) == 2
        assert benchmark.lake.num_tables > 0

    def test_forwards_num_queries_only_when_accepted(self):
        benchmark = build_benchmark("imdb", num_queries=7, seed=5)
        assert benchmark.lake.num_tables == 8  # scale override applied

    def test_unknown_benchmark_and_parameters(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            build_benchmark("webtables")
        with pytest.raises(ConfigurationError, match="does not accept"):
            build_benchmark("ugen", bogus=1)


class TestDiversifierRegistryIntegration:
    def test_dust_diversifier_from_registry_matches_direct(self, small_benchmark):
        dust = DIVERSIFIERS.create("dust", config=DustConfig(prune_limit=100))
        assert isinstance(dust, DustDiversifier)
        assert dust.config.prune_limit == 100

    def test_oracle_searcher_needs_ground_truth(self, small_benchmark):
        oracle = SEARCHERS.create("oracle", ground_truth=small_benchmark.ground_truth)
        assert isinstance(oracle, TableUnionSearcher)
        oracle.index(small_benchmark.lake)
        query = small_benchmark.query_tables[0]
        hits = oracle.search(query, 3)
        assert all(
            hit.table_name in small_benchmark.ground_truth[query.name] for hit in hits
        )
