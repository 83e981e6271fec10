"""Shared utilities: errors, randomness, timing, text and parallel helpers."""

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
]
