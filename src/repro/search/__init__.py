"""Table union search substrate.

Given a query table, these searchers return the top-k data lake tables ranked
by unionability.  DUST (Algorithm 1, line 3) can use any of them; the paper's
experiments use Starmie and D3L as end-to-end baselines (Sec. 6.5) plus a
ground-truth oracle when isolating the diversification stage.

One kernel, five plug-ins: :class:`~repro.search.base.TableUnionSearcher`
owns the query-state memo, the one ranking loop (``search`` is
``score_candidates`` over every indexed table — a table is ranked iff it is
in the index and still in the lake), delta-by-rebuild, the column-vector
codec and the cascade prefilter vectors; a backend supplies its constructor,
``config_state``, ``_build_index`` (optionally ``_apply_index_delta``),
``_score_table``, ``_compute_query_state`` and the
``_index_state``/``_load_index_state`` pair.

Indexes are maintainable, not just buildable: every backend supports
``update_index(added=..., removed=...)``/``refresh()`` for mutating lakes
(a backend without an incremental path for a delta rebuilds) and
``index_state()``/``load_index_state()`` for cross-process persistence — one
lifecycle, ``warm(lake, store)``/``persist()``, that every consumer calls and
each searcher implements its own way.  Indexes are also **partitionable**:
:class:`~repro.search.sharded.ShardedSearcher` builds one index per lake
shard concurrently in forked workers (``build_partial(shard)``/
``load_partial(...)`` carry them across the process boundary), keeps the
shards separate and serves queries by fan-out/merge, bit-identical to a flat
index.

Query latency is made sub-linear in lake size by the same executor's
**prefilter stage** (:mod:`repro.search.cascade`): given a
``candidate_budget``, ``ShardedSearcher`` — one shard when the lake is not
sharded — prunes the lake with an approximate
:class:`~repro.search.cascade.CandidatePrefilter` (LSH bucket probe or
low-dimensional random projection) and exact-scores only the surviving
candidates through the kernel's ``score_candidates`` loop.
"""

from repro.search.base import TableUnionSearcher, SearchResult
from repro.search.minhash import MinHashSignature, MinHashLSHIndex
from repro.search.overlap import ValueOverlapSearcher
from repro.search.starmie import StarmieSearcher
from repro.search.d3l import D3LSearcher
from repro.search.santos import SantosSearcher
from repro.search.oracle import OracleSearcher
from repro.search.sharded import ShardedSearcher
from repro.search.cascade import (
    CandidatePrefilter,
    LSHPrefilter,
    ProjectionPrefilter,
)

__all__ = [
    "TableUnionSearcher",
    "SearchResult",
    "MinHashSignature",
    "MinHashLSHIndex",
    "ValueOverlapSearcher",
    "StarmieSearcher",
    "D3LSearcher",
    "SantosSearcher",
    "OracleSearcher",
    "ShardedSearcher",
    "CandidatePrefilter",
    "LSHPrefilter",
    "ProjectionPrefilter",
]
