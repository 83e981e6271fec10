"""Column alignment and outer union (paper Sec. 3.3 and Appendix A.1.1)."""

from repro.alignment.types import ColumnAlignment, AlignedCluster
from repro.alignment.holistic import HolisticColumnAligner
from repro.alignment.bipartite import BipartiteColumnAligner
from repro.alignment.union import aligned_tuples_from_tables

__all__ = [
    "ColumnAlignment",
    "AlignedCluster",
    "HolisticColumnAligner",
    "BipartiteColumnAligner",
    "aligned_tuples_from_tables",
]
