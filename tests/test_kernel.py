"""The backend kernel contract of :class:`TableUnionSearcher`.

One parametrised suite over the five registered backends for everything the
base class owns on their behalf — the query-state memo, the one ranking loop
(``search`` ≡ ``score_candidates`` over the index) and the membership rule
between a lake mutation and its ``refresh()`` — so a new backend inherits the
tests along with the behaviour.
"""

import pytest
from testkit import BACKEND_FACTORIES, fresh_lake, make_table, rankings

from repro.search import ShardedSearcher
from repro.utils.errors import SearchError

BACKENDS = sorted(BACKEND_FACTORIES)
#: Backends with a materialised index (the oracle scores the live lake and
#: refuses to lose a labelled table, so it sits out the mutation matrix).
INDEXED_BACKENDS = ["d3l", "overlap", "santos", "starmie"]


def build(backend, layout, bench, lake):
    def factory():
        return BACKEND_FACTORIES[backend](bench)

    if layout == "flat":
        return factory().index(lake)
    return ShardedSearcher(factory, num_shards=2).index(lake)


def spy_on_query_state(searcher, monkeypatch):
    """Count calls of the backend's ``_compute_query_state`` hook."""
    calls = []
    compute = searcher._compute_query_state

    def counting(query_table):
        calls.append(query_table)
        return compute(query_table)

    monkeypatch.setattr(searcher, "_compute_query_state", counting)
    return calls


class TestQueryState:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_computed_once_per_search(self, tus_bench, backend, monkeypatch):
        searcher = BACKEND_FACTORIES[backend](tus_bench).index(fresh_lake(tus_bench))
        calls = spy_on_query_state(searcher, monkeypatch)
        query = tus_bench.query_tables[0]
        searcher.search(query, 5)
        assert len(calls) == 1  # not once per candidate table
        searcher.search(query, 3)
        assert len(calls) == 1  # same table, same content: still memoised
        searcher.search(tus_bench.query_tables[1], 5)
        assert len(calls) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recomputed_after_append_rows(self, tus_bench, backend, monkeypatch):
        """Regression: the memo must not serve results computed from the
        query table's pre-``append_rows`` contents."""
        lake = fresh_lake(tus_bench)
        searcher = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        calls = spy_on_query_state(searcher, monkeypatch)
        query = tus_bench.query_tables[0].copy()
        searcher.search(query, 5)  # populate the memo
        # Graft rows of an unrelated table so rankings should change.
        donor = lake.tables()[-1]
        query.append_rows(
            (row + (None,) * query.num_columns)[: query.num_columns]
            for row in donor.rows[:3]
        )
        fresh = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        assert searcher.search(query, 5) == fresh.search(query, 5)
        assert len(calls) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recomputed_after_refresh_moved_the_index(
        self, tus_bench, backend, monkeypatch
    ):
        lake = fresh_lake(tus_bench)
        searcher = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        calls = spy_on_query_state(searcher, monkeypatch)
        query = tus_bench.query_tables[0]
        searcher.search(query, 5)
        lake.add_table(make_table("newcomer"))
        searcher.refresh()
        fresh = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        assert searcher.search(query, 5) == fresh.search(query, 5)
        assert len(calls) == 2  # query state may depend on the index: dropped


class TestRankingLoop:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_score_candidates_is_search_restricted(self, tus_bench, backend):
        lake = fresh_lake(tus_bench)
        searcher = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        names = lake.table_names()[::2]
        for query in tus_bench.query_tables:
            full = {
                hit.table_name: hit.score
                for hit in searcher.search(query, lake.num_tables)
            }
            # Duplicates are scored once; the query's own name is skipped.
            scores = searcher.score_candidates(query, [*names, names[0], query.name])
            assert scores == {name: full[name] for name in names}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_candidate_names_raise(self, tus_bench, backend):
        searcher = BACKEND_FACTORIES[backend](tus_bench).index(fresh_lake(tus_bench))
        with pytest.raises(SearchError):
            searcher.score_candidates(tus_bench.query_tables[0], ["no_such_table"])


class TestMembershipBetweenMutationAndRefresh:
    """A table is ranked iff it is in the index *and* still in the lake —
    the same answer from a flat backend and from its sharded deployment."""

    @pytest.mark.parametrize("mutation", ["added", "removed"])
    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    @pytest.mark.parametrize("backend", INDEXED_BACKENDS)
    def test_unrefreshed_mutation(self, tus_bench, backend, layout, mutation):
        lake = fresh_lake(tus_bench)
        searcher = build(backend, layout, tus_bench, lake)
        query = tus_bench.query_tables[0]
        (before,) = rankings(searcher, [query], k=lake.num_tables)
        if mutation == "added":
            # A copy of the query would top the ranking if it were served.
            lake.add_table(query.copy(name="newcomer"))
            expected, unserved = before, "newcomer"
        else:
            unserved = before[0][0]  # the top hit leaves the lake
            lake.remove_table(unserved)
            expected = before[1:]
        assert rankings(searcher, [query], k=lake.num_tables + 1) == [expected]
        if mutation == "added":  # never indexed: a prefilter bug, not a skip
            with pytest.raises(SearchError):
                searcher.score_candidates(query, [unserved])
        else:  # indexed but gone: dropped, so a stale prefilter cannot crash
            assert searcher.score_candidates(query, [unserved]) == {}
        searcher.refresh()
        fresh = build(backend, "flat", tus_bench, lake)
        assert rankings(searcher, tus_bench.query_tables) == rankings(
            fresh, tus_bench.query_tables
        )
