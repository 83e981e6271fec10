"""DUST core: the paper's primary contribution.

* :class:`DustDiversifier` — Algorithm 2 (prune → cluster → re-rank).
* :class:`DustPipeline` — Algorithm 1 (search → align → embed → diversify).
* Diversity evaluation metrics — Average Diversity (Eq. 1) and Min Diversity
  (Eq. 2).
"""

from repro.core.config import DustConfig, PipelineConfig
from repro.core.metrics import average_diversity, min_diversity, diversity_scores
from repro.core.pruning import prune_by_table
from repro.core.reranking import rank_candidates_against_query, RankedCandidate
from repro.core.diversifier import DustDiversifier
from repro.core.pipeline import DustPipeline, DustResult

__all__ = [
    "DustConfig",
    "PipelineConfig",
    "average_diversity",
    "min_diversity",
    "diversity_scores",
    "prune_by_table",
    "rank_candidates_against_query",
    "RankedCandidate",
    "DustDiversifier",
    "DustPipeline",
    "DustResult",
]
