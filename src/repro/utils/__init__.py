"""Shared utilities: errors, randomness, timing, validation, text and parallel helpers."""

from repro.utils.errors import (
    ReproError,
    ConfigurationError,
    DataLakeError,
    AlignmentError,
    EmbeddingError,
    DiversificationError,
    TrainingError,
)
from repro.utils.parallel import forked_map, probe_gate
from repro.utils.rng import seeded_rng, derive_seed
from repro.utils.timing import Timer, timed
from repro.utils.validation import (
    require,
    require_positive,
    require_in_range,
    require_non_empty,
    require_type,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DataLakeError",
    "AlignmentError",
    "EmbeddingError",
    "DiversificationError",
    "TrainingError",
    "forked_map",
    "probe_gate",
    "seeded_rng",
    "derive_seed",
    "Timer",
    "timed",
    "require",
    "require_positive",
    "require_in_range",
    "require_non_empty",
    "require_type",
]
