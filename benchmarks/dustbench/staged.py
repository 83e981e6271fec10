"""Algorithm 1 and Algorithm 2 re-executed stage by stage, with spans.

The traced replay cannot read stage times out of the program (spans inside
``src/repro`` are a later change, and ``DustResult.timings["search"]`` is
0.0 behind a ``QueryService``), so it calls the same public functions
``DustPipeline.run`` and ``DustDiversifier.select`` call, in the same order
with the same arguments, and wraps each call in a harness span.  The replay
is only trusted because every staged result is compared with what
``Discovery.run`` (and, on the serve workloads, the wire) selected.
"""

from __future__ import annotations

import time
from statistics import fmean
from typing import Any, Sequence

import numpy as np

from repro.alignment.holistic import HolisticColumnAligner
from repro.alignment.union import aligned_tuples_from_tables, query_tuples
from repro.api.facade import Discovery, ResultSet
from repro.api.schema import dump_result
from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.medoids import cluster_medoids
from repro.core.config import DustConfig
from repro.core.pipeline import DustResult
from repro.core.pruning import prune_by_table
from repro.core.reranking import rank_candidates_against_query, top_k_candidates
from repro.datalake.table import Table
from repro.embeddings.base import ColumnEncoder, EncoderInfo
from repro.embeddings.column import StarmieColumnEncoder
from repro.embeddings.serialization import serialize_aligned_tuple
from repro.vectorops import DistanceContext

from harness import Tracer


class TimedColumnEncoder(ColumnEncoder):
    """Timing proxy: records one ``embeddings.column_encode`` span per column.

    Handed to :class:`HolisticColumnAligner` in place of the deployment's
    encoder, so ``alignment.align`` self time is alignment's own clustering
    and silhouette work, net of the embedding layer it calls into.
    """

    def __init__(self, inner: ColumnEncoder, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    @property
    def info(self) -> EncoderInfo:
        return self._inner.info

    def encode_column(self, header: str, values: Sequence[Any]) -> np.ndarray:
        start = time.perf_counter()
        vector = self._inner.encode_column(header, values)
        self._tracer.add("embeddings.column_encode", start, time.perf_counter())
        return vector


def staged_select(
    query_embeddings: np.ndarray,
    candidate_embeddings: np.ndarray,
    k: int,
    table_ids: Sequence[object] | None,
    config: DustConfig,
    tracer: Tracer,
) -> list[int]:
    """``DustDiversifier.select`` step by step (Algorithm 2), one span each."""
    num_candidates = candidate_embeddings.shape[0]
    with tracer.span("core.prune") as span:
        limit = config.prune_limit
        if limit is None or num_candidates <= limit:
            pruned = list(range(num_candidates))
        else:
            ids = list(table_ids) if table_ids is not None else [0] * num_candidates
            pruned = prune_by_table(candidate_embeddings, ids, limit, metric=config.metric)
        context = DistanceContext(
            query_embeddings, candidate_embeddings, metric=config.metric
        )
        narrowed = pruned != list(range(num_candidates))
        pruned_context = context.subset(pruned) if narrowed else context
        span["candidates"] = num_candidates
        span["kept"] = len(pruned)
    embeddings = pruned_context.candidates.data

    num_clusters = min(k * config.candidate_multiplier, embeddings.shape[0])
    with tracer.span("vectorops.distance", rows=embeddings.shape[0]):
        square = pruned_context.candidate_distances(config.cluster_metric)
    with tracer.span("cluster.linkage"):
        labels = (
            AgglomerativeClustering(linkage=config.linkage, metric=config.cluster_metric)
            .cluster(embeddings, num_clusters, precomputed_distances=square)
            .labels
        )
    with tracer.span("cluster.medoids"):
        medoid_distances = (
            pruned_context.candidate_distances(config.metric)
            if pruned_context.is_cached(config.metric)
            else None
        )
        medoid_local = cluster_medoids(
            embeddings, labels, metric=config.metric, distances=medoid_distances
        )
    medoids = [pruned[index] for index in medoid_local]

    with tracer.span("core.rerank"):
        ranked = rank_candidates_against_query(
            candidate_embeddings[np.asarray(medoids, dtype=int)],
            query_embeddings,
            metric=config.metric,
            distances=pruned_context.to_query(medoid_local, metric=config.metric),
        )
        selected = [medoids[i] for i in top_k_candidates(ranked, min(k, len(medoids)))]
        if len(selected) < k:
            # Same k-shortfall fallback as the diversifier: fill with the
            # pruned candidates farthest from the query.
            chosen = set(selected)
            fallback = rank_candidates_against_query(
                embeddings,
                query_embeddings,
                metric=config.metric,
                distances=pruned_context.to_query(metric=config.metric),
            )
            for candidate in fallback:
                original = pruned[candidate.candidate_index]
                if original not in chosen:
                    selected.append(original)
                    chosen.add(original)
                if len(selected) == k:
                    break
    return [int(index) for index in selected]


def staged_run(
    discovery: Discovery, query: Table, k: int, tracer: Tracer
) -> tuple[dict[str, Any], str]:
    """``Discovery.run`` step by step (Algorithm 1); returns (payload, JSON text).

    Must be called inside ``tracer.request(...)`` so the stage spans hang off
    one request span.
    """
    backend = discovery.config.searcher.name
    pipeline_config = discovery.config.pipeline_config()
    dust = pipeline_config.dust
    column_encoder = discovery.column_encoder
    if not isinstance(column_encoder, StarmieColumnEncoder):
        column_encoder = TimedColumnEncoder(column_encoder, tracer)

    with tracer.span("serving.service.search"):
        hits = discovery.search(query, pipeline_config.num_search_tables)
        lake_tables = [discovery.lake.get(hit.table_name) for hit in hits]
    with tracer.span("alignment.align"):
        alignment = HolisticColumnAligner(column_encoder).align(query, lake_tables)
    with tracer.span("alignment.union") as span:
        candidates = aligned_tuples_from_tables(alignment, lake_tables)
        span["candidate_tuples"] = len(candidates)
    with tracer.span("embeddings.serialize"):
        query_texts = [
            serialize_aligned_tuple(row, query.columns) for row in query_tuples(query)
        ]
        candidate_texts = [
            serialize_aligned_tuple(row, query.columns) for row in candidates
        ]
    with tracer.span("embeddings.encode", tuples=len(query_texts) + len(candidate_texts)):
        query_embeddings = discovery.tuple_encoder.encode_many(query_texts)
        candidate_embeddings = discovery.tuple_encoder.encode_many(candidate_texts)
    with tracer.span("core.select"):
        selected = staged_select(
            query_embeddings,
            candidate_embeddings,
            min(k, len(candidates)),
            [candidate.source_table for candidate in candidates],
            dust,
            tracer,
        )
    with tracer.span("api.schema.serialize") as span:
        result = DustResult(
            query_table_name=query.name,
            search_results=list(hits),
            alignment=alignment,
            selected_tuples=[candidates[index] for index in selected],
            selected_indices=selected,
            num_candidate_tuples=len(candidates),
        )
        provenance = {
            "backend": backend,
            "k": k,
            "config_fingerprint": discovery.config.fingerprint(),
            "searcher_fingerprint": discovery.searcher(backend).config_fingerprint(),
            "lake": discovery.lake.name,
            "lake_fingerprint": discovery.lake.fingerprint(),
        }
        payload = ResultSet(result=result, provenance=provenance).to_dict()
        text = dump_result(payload)
        span["response_bytes"] = len(text.encode("utf-8"))
    return payload, text


# ------------------------------------------------------- per-layer roll-up
def record_stage_values(values: dict[str, float], tracer: Tracer) -> None:
    """Per-layer roll-up of the Algorithm-1 stage spans of a serve replay.

    Stage times are *means* per replayed request, so they add up to the mean
    staged wall; counts are means too.
    """
    values["serving.service.search_ms"] = tracer.mean_ms("serving.service.search")
    values["alignment.align_ms"] = tracer.mean_ms("alignment.align")
    values["alignment.align_self_ms"] = tracer.mean_ms("alignment.align", self_time=True)
    values["embeddings.column_encode_ms"] = (
        values["alignment.align_ms"] - values["alignment.align_self_ms"]
    )
    values["alignment.union_ms"] = tracer.mean_ms("alignment.union")
    values["alignment.candidate_tuples"] = fmean(
        [s["candidate_tuples"] for s in tracer.spans if s["name"] == "alignment.union"]
    )
    values["embeddings.serialize_ms"] = tracer.mean_ms("embeddings.serialize")
    values["embeddings.encode_ms"] = tracer.mean_ms("embeddings.encode")
    encodes = [s for s in tracer.spans if s["name"] == "embeddings.encode"]
    tuples = sum(s["tuples"] for s in encodes)
    values["embeddings.tuples_encoded"] = fmean([s["tuples"] for s in encodes])
    values["embeddings.encode_us_per_tuple"] = (
        sum(s["end"] - s["start"] for s in encodes) / tuples * 1e6
    )
    values["api.schema.serialize_ms"] = tracer.mean_ms("api.schema.serialize")
    values["api.schema.response_bytes"] = fmean(
        [s["response_bytes"] for s in tracer.spans if s["name"] == "api.schema.serialize"]
    )
    record_select_values(values, tracer)


def record_select_values(values: dict[str, float], tracer: Tracer) -> None:
    """Per-layer roll-up of the Algorithm-2 spans (shared with diversify-scale)."""
    values["core.select_ms"] = tracer.mean_ms("core.select")
    values["core.prune_ms"] = tracer.mean_ms("core.prune")
    prunes = [s for s in tracer.spans if s["name"] == "core.prune"]
    values["core.pruned_share"] = 1.0 - sum(s["kept"] for s in prunes) / sum(
        s["candidates"] for s in prunes
    )
    values["vectorops.distance_ms"] = tracer.mean_ms("vectorops.distance")
    values["vectorops.matrix_bytes"] = fmean(
        [s["rows"] ** 2 * 8 for s in tracer.spans if s["name"] == "vectorops.distance"]
    )
    values["cluster.linkage_ms"] = tracer.mean_ms("cluster.linkage")
    values["cluster.medoids_ms"] = tracer.mean_ms("cluster.medoids")
    values["core.rerank_ms"] = tracer.mean_ms("core.rerank")
