"""Exception hierarchy for the DUST reproduction library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single except clause while still being able
to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid parameter or configuration object was supplied."""


class DataLakeError(ReproError):
    """A table, column or data-lake operation received inconsistent data."""


class AlignmentError(ReproError):
    """Column alignment failed (e.g. no query columns could be matched)."""


class EmbeddingError(ReproError):
    """An embedding model received input it cannot encode."""


class DiversificationError(ReproError):
    """A diversification algorithm received an infeasible request."""


class TrainingError(ReproError):
    """Model fine-tuning failed (bad dataset, divergence, shape mismatch)."""


class SearchError(ReproError):
    """A table union search index or query operation failed."""


class IngestError(ReproError):
    """A streaming-ingest event or batch failed, or its flush timed out."""


class BenchmarkError(ReproError):
    """A benchmark generator was asked for an impossible configuration."""


class ServingError(ReproError):
    """An index store or query serving operation failed."""


class IndexStoreMiss(ServingError):
    """The index store has no (valid) entry for the requested backend/lake."""
