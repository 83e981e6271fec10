"""DUST — Diverse Unionable Tuple Search.

Reproduction of Khatiwada, Shraga & Miller, *Diverse Unionable Tuple Search:
Novelty-Driven Discovery in Data Lakes* (EDBT 2026).

The public API is organised by subsystem:

* :mod:`repro.api` — the unified discovery API: component registries,
  the declarative :class:`~repro.api.config.DiscoveryConfig`, the
  :class:`~repro.api.facade.Discovery` facade with fluent queries, and the
  ``python -m repro`` / ``dust`` command line.
* :mod:`repro.core` — the DUST pipeline (Algorithm 1), the DUST diversifier
  (Algorithm 2) and the diversity metrics (Eq. 1 / Eq. 2).
* :mod:`repro.vectorops` — the shared vector engine: dtype-controlled
  embedding matrices (:class:`~repro.vectorops.EmbeddingMatrix`) and the
  lazily-cached per-query distance matrices
  (:class:`~repro.vectorops.DistanceContext`) that every stage of Algorithm 2
  and every diversification baseline draw their distances from.
* :mod:`repro.datalake` — tables, data lakes and CSV I/O.
* :mod:`repro.search` — table union search techniques (overlap, Starmie-like,
  D3L-like, SANTOS-like, ground-truth oracle).
* :mod:`repro.serving` — the persistent index store and the resident HTTP
  server built on top of ``repro.search``.
* :mod:`repro.alignment` — holistic and bipartite column alignment plus outer
  union.
* :mod:`repro.embeddings` — word/contextual encoders, column embedders and
  tuple serialization.
* :mod:`repro.models` — the DUST fine-tuned tuple model and baselines.
* :mod:`repro.diversify` — IR diversification baselines (GMC, GNE, CLT, ...).
* :mod:`repro.benchgen` — synthetic TUS / SANTOS / UGEN-V1 / IMDB benchmark
  generators.
* :mod:`repro.evaluation` — the experiment harness behind every table and
  figure of the paper.
"""

from repro.core import (
    DustConfig,
    DustDiversifier,
    DustPipeline,
    DustResult,
    PipelineConfig,
    average_diversity,
    diversity_scores,
    min_diversity,
)
from repro.datalake import DataLake, Table
from repro.serving import IndexStore
from repro.vectorops import DistanceContext, EmbeddingMatrix

__version__ = "1.1.0"

#: Unified-API names served lazily (PEP 562): the facade imports the pipeline
#: and serving layers, so resolving them on first access keeps ``import
#: repro`` cheap and free of circular imports with the self-registering
#: implementation modules.
_API_EXPORTS = {
    "Discovery",
    "DiscoveryConfig",
    "DiscoveryQuery",
    "ComponentSpec",
    "ResultSet",
}


def __getattr__(name: str):
    if name in _API_EXPORTS:
        import repro.api

        return getattr(repro.api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Discovery",
    "DiscoveryConfig",
    "DiscoveryQuery",
    "ComponentSpec",
    "ResultSet",
    "DistanceContext",
    "EmbeddingMatrix",
    "DustConfig",
    "DustDiversifier",
    "DustPipeline",
    "DustResult",
    "PipelineConfig",
    "average_diversity",
    "diversity_scores",
    "min_diversity",
    "DataLake",
    "Table",
    "IndexStore",
    "__version__",
]
