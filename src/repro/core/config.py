"""Configuration objects for the DUST diversifier and end-to-end pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.agglomerative import SUPPORTED_LINKAGE
from repro.cluster.distance import DISTANCE_FUNCTIONS
from repro.utils.errors import ConfigurationError


def _require_number(
    name: str, value: Any, *, integer: bool = False, low: float = 0, high: float | None = None
) -> None:
    """Raise unless ``value`` is a number in ``[low, high]`` — an ``int`` when
    ``integer`` — and not a bool (``True`` is an ``int`` to Python)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int if integer else (int, float))
        or not low <= value
        or (high is not None and value > high)
    ):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        kind = "an integer" if integer else "a number"
        raise ConfigurationError(f"{name} must be {kind} {bound}, got {value!r}")


@dataclass(frozen=True)
class DustConfig:
    """Parameters of DUST's tuple diversification (Algorithm 2).

    Attributes
    ----------
    candidate_multiplier:
        The ``p`` parameter: the clustering step produces ``k * p`` candidate
        clusters so the re-ranking step has more than ``k`` diverse candidates
        to choose from.  The paper selects ``p = 2`` (Appendix A.2.2).
    prune_limit:
        The ``s`` parameter: maximum number of data lake tuples kept by the
        pre-clustering pruning step (2 500 in the paper's effectiveness
        experiments, Sec. 6.4.3).  ``None`` disables pruning.
    metric:
        Distance metric used for pruning, medoid selection and re-ranking
        (cosine in the paper).
    linkage, cluster_metric:
        Hierarchical-clustering configuration for the candidate clustering.
    """

    candidate_multiplier: int = 2
    prune_limit: int | None = 2500
    metric: str = "cosine"
    linkage: str = "average"
    cluster_metric: str = "euclidean"

    def __post_init__(self) -> None:
        _require_number(
            "dust.candidate_multiplier (p)", self.candidate_multiplier, integer=True, low=1
        )
        if self.prune_limit is not None:
            _require_number("dust.prune_limit (s)", self.prune_limit, integer=True, low=1)
        if self.metric not in DISTANCE_FUNCTIONS:
            raise ConfigurationError(
                f"metric must be one of {sorted(DISTANCE_FUNCTIONS)}, got {self.metric!r}"
            )
        if self.linkage not in SUPPORTED_LINKAGE:
            raise ConfigurationError(
                f"linkage must be one of {sorted(SUPPORTED_LINKAGE)}, got {self.linkage!r}"
            )
        if self.cluster_metric not in DISTANCE_FUNCTIONS:
            raise ConfigurationError(
                f"cluster_metric must be one of {sorted(DISTANCE_FUNCTIONS)}, "
                f"got {self.cluster_metric!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the end-to-end DUST pipeline (Algorithm 1).

    Attributes
    ----------
    num_search_tables:
        How many unionable tables the union-search stage retrieves before
        alignment (the paper unions the top search results).
    k:
        Number of diverse tuples to output.
    dust:
        Configuration of the diversification stage.
    min_query_rows:
        Query tables with fewer rows are rejected (3 in the paper's
        preprocessing).
    """

    num_search_tables: int = 10
    k: int = 30
    dust: DustConfig = DustConfig()
    min_query_rows: int = 3

    def __post_init__(self) -> None:
        _require_number(
            "pipeline.num_search_tables", self.num_search_tables, integer=True, low=1
        )
        _require_number("pipeline.k", self.k, integer=True, low=1)
        _require_number("pipeline.min_query_rows", self.min_query_rows, integer=True)
