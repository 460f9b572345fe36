"""Tests for the incremental projector (vs full reprojection)."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import BipartiteTemporalMultigraph
from repro.projection import TimeWindow, project, project_streaming
from repro.projection.incremental import IncrementalProjector


def assert_matches_full(proj: IncrementalProjector) -> None:
    """Incremental CI graph must equal projecting the ingested corpus."""
    full = project(proj.to_btm(), proj.window)
    inc = proj.ci_graph()
    assert inc.edges.to_dict() == full.ci.edges.to_dict()
    assert np.array_equal(inc.page_counts, full.ci.page_counts)


class TestIncrementalProjector:
    def test_single_batch_matches_full(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments(
            [("a", "p", 0), ("b", "p", 30), ("a", "q", 5), ("c", "q", 50)]
        )
        assert_matches_full(proj)

    def test_appending_to_existing_page(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 30)])
        before = proj.ci_graph().edges.to_dict()
        assert before == {(0, 1): 1}
        proj.add_comments([("c", "p", 45)])
        assert_matches_full(proj)
        after = proj.ci_graph().edges.to_dict()
        assert len(after) == 3

    def test_out_of_order_arrival(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 100)])
        proj.add_comments([("b", "p", 70)])   # earlier than a's comment
        assert proj.ci_graph().edges.to_dict() == {(0, 1): 1}
        assert_matches_full(proj)

    def test_only_touched_pages_recomputed(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 10)])
        n = proj.add_comments([("x", "q", 0), ("y", "q", 5)])
        assert n == 1  # only page q recomputed

    def test_remove_page(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 10), ("a", "q", 0), ("b", "q", 3)])
        assert proj.remove_page("p")
        assert proj.ci_graph().edges.to_dict() == {(0, 1): 1}
        assert not proj.remove_page("never")

    def test_counters(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 1), ("a", "q", 2)])
        assert proj.n_pages == 2 and proj.n_comments == 3

    def test_empty_projector(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        assert proj.ci_graph().n_edges == 0

    def test_incremental_day_by_day_matches_full(self, small_dataset):
        proj = IncrementalProjector(TimeWindow(0, 60))
        records = small_dataset.records
        chunk = max(len(records) // 5, 1)
        for start in range(0, len(records), chunk):
            proj.add_comments(
                r.as_triple() for r in records[start : start + chunk]
            )
        assert_matches_full(proj)

    @settings(max_examples=25, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 5), st.integers(0, 3), st.integers(0, 200)
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_property_matches_full_after_any_update_sequence(self, batches):
        proj = IncrementalProjector(TimeWindow(0, 60))
        for batch in batches:
            proj.add_comments(
                (f"u{u}", f"p{p}", t) for u, p, t in batch
            )
        assert_matches_full(proj)


def assert_pprime_matches_full(proj: IncrementalProjector) -> None:
    """The P' ledger must equal a from-scratch projection's page counts."""
    full = project(proj.to_btm(), proj.window)
    assert np.array_equal(proj.ci_graph().page_counts, full.ci.page_counts)


class TestEviction:
    def test_evict_before_drops_old_comments(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 30), ("c", "p", 500)])
        report = proj.evict_before(100)
        assert report.n_evicted == 2
        assert proj.n_comments == 1
        assert proj.ci_graph().n_edges == 0
        assert_matches_full(proj)

    def test_evicted_rows_preserve_multiplicity(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("a", "p", 10), ("a", "p", 999)])
        report = proj.evict_before(100)
        assert sorted(report.evicted) == [(0, 0), (0, 0)]

    def test_empty_page_is_removed(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "q", 200)])
        report = proj.evict_before(100)
        assert report.removed_pages == frozenset({proj.page_names.id_of("p")})
        assert proj.n_pages == 1

    def test_noop_eviction(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 50), ("b", "p", 60)])
        report = proj.evict_before(10)
        assert report.n_evicted == 0 and report.touched_pages == frozenset()
        assert_matches_full(proj)

    def test_candidate_set_matches_eviction(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "q", 200), ("c", "r", 40)])
        proj.add_comments([("d", "q", 50), ("e", "s", 150)])  # q's start moves
        report = proj.evict_before(100)
        expected = {proj.page_names.id_of(p) for p in ("p", "q", "r")}
        assert report.touched_pages == frozenset(expected)
        assert proj.evict_before(100).touched_pages == frozenset()


class TestRemovePageAndChurnParity:
    """Satellite: remove_page x out-of-order arrivals x the P' ledger,

    with full-projection parity asserted after *each* mutation."""

    def test_remove_page_updates_pprime(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments(
            [("a", "p", 0), ("b", "p", 10), ("a", "q", 0), ("b", "q", 3)]
        )
        assert proj.remove_page("p")
        assert_pprime_matches_full(proj)
        assert proj.ci_graph().page_counts.tolist()[:2] == [1, 1]

    def test_interleaved_mutations_stay_exact(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 100), ("b", "p", 130)])
        assert_matches_full(proj); assert_pprime_matches_full(proj)
        proj.add_comments([("c", "p", 90), ("a", "q", 300)])  # out of order
        assert_matches_full(proj); assert_pprime_matches_full(proj)
        proj.evict_before(95)
        assert_matches_full(proj); assert_pprime_matches_full(proj)
        proj.add_comments([("b", "q", 290)])  # older than q's newest
        assert_matches_full(proj); assert_pprime_matches_full(proj)
        assert proj.remove_page("p")
        assert_matches_full(proj); assert_pprime_matches_full(proj)

    @settings(max_examples=20, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.lists(
                    st.tuples(
                        st.integers(0, 5),
                        st.integers(0, 3),
                        st.integers(0, 300),
                    ),
                    min_size=1,
                    max_size=8,
                ),
                st.integers(0, 300),      # evict_before cutoff
                st.sampled_from(["p0", "p1", "p2", "p3"]),  # remove_page
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_property_any_mutation_sequence_matches_full(self, steps):
        proj = IncrementalProjector(TimeWindow(0, 60))
        for step in steps:
            if isinstance(step, list):
                proj.add_comments(
                    (f"u{u}", f"p{p}", t) for u, p, t in step
                )
            elif isinstance(step, int):
                proj.evict_before(step)
            else:
                proj.remove_page(step)
            assert_matches_full(proj)
            assert_pprime_matches_full(proj)


class TestCompaction:
    def test_compact_preserves_graph(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments(
            [("a", "p", 0), ("b", "p", 10), ("c", "q", 500), ("d", "q", 510)]
        )
        proj.evict_before(100)          # a, b, p die
        before = {
            tuple(sorted((proj.user_names.key_of(u), proj.user_names.key_of(v))))
            : w
            for (u, v), w in proj.ci_graph().edges.to_dict().items()
        }
        report = proj.compact()
        assert report.reclaimed_users == 2 and report.reclaimed_pages == 1
        after = {
            tuple(sorted((proj.user_names.key_of(u), proj.user_names.key_of(v))))
            : w
            for (u, v), w in proj.ci_graph().edges.to_dict().items()
        }
        assert before == after
        assert_matches_full(proj)

    def test_maps_are_monotone(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments(
            [(f"u{i}", f"p{i % 3}", 1000 * (i % 2)) for i in range(9)]
        )
        proj.evict_before(500)
        report = proj.compact()
        for mapping in (report.user_map, report.page_map):
            survivors = mapping[mapping >= 0]
            assert np.array_equal(survivors, np.sort(survivors))

    def test_memory_stats_account_churn_debt(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 10)])
        proj.evict_before(100)
        stats = proj.memory_stats()
        assert stats["interned_users"] == 2 and stats["live_users"] == 0
        proj.compact()
        stats = proj.memory_stats()
        assert stats["interned_users"] == 0 and stats["interned_pages"] == 0


def assert_counts_match_full(proj: IncrementalProjector) -> None:
    """CI graph, raw observation count and the per-comment ledgers must
    all equal a from-scratch projection of the live corpus."""
    full = project(proj.to_btm(), proj.window)
    edges = full.ci.edges.to_dict()
    assert proj.ci_graph().edges.to_dict() == edges
    assert np.array_equal(proj.ci_graph().page_counts, full.ci.page_counts)
    assert proj.raw_pair_observations() == full.stats["pair_observations"]
    assert proj.pair_weights == edges
    assert proj.page_counts == {
        u: int(c) for u, c in enumerate(full.ci.page_counts) if c
    }
    stats = proj.memory_stats()
    assert stats["comments"] == proj.to_btm().n_comments
    assert stats["live_users"] == len(set(proj.to_btm().users.tolist()))


#: Windows with delta1 = 0 (equal times count twice) and delta1 > 0, plus
#: the two degenerate ones.
WINDOWS = [(0, 30), (0, 0), (10, 40), (15, 15)]


class TestPerCommentCounts:
    """The count store after every single add or evict, not only at the end."""

    def test_equal_timestamps_count_twice_when_delta1_is_zero(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 5), ("b", "p", 5)])
        assert proj.raw_pair_observations() == 2
        assert_counts_match_full(proj)
        proj.add_comments([("c", "p", 5)])
        assert proj.raw_pair_observations() == 6
        assert_counts_match_full(proj)
        proj.evict_before(6)
        assert proj.raw_pair_observations() == 0
        assert_counts_match_full(proj)

    def test_equal_timestamps_do_not_count_when_delta1_is_positive(self):
        proj = IncrementalProjector(TimeWindow(10, 60))
        proj.add_comments([("a", "p", 5), ("b", "p", 5), ("c", "p", 15)])
        assert proj.raw_pair_observations() == 2
        assert proj.pair_weights == {(0, 2): 1, (1, 2): 1}
        assert_counts_match_full(proj)

    def test_same_author_repeats_count_once_per_mate(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("a", "p", 10), ("b", "p", 20)])
        assert proj.raw_pair_observations() == 2
        assert proj.pair_weights == {(0, 1): 1}
        proj.evict_before(5)
        assert proj.pair_weights == {(0, 1): 1}
        assert_counts_match_full(proj)
        proj.evict_before(15)
        assert proj.pair_weights == {} and proj.page_counts == {}
        assert_counts_match_full(proj)

    def test_page_emptied_by_eviction_then_refilled(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 10), ("a", "q", 100)])
        report = proj.evict_before(50)
        pid = proj.page_names.id_of("p")
        assert report.removed_pages == frozenset({pid}) and proj.n_pages == 1
        assert_counts_match_full(proj)
        proj.add_comments([("b", "p", 60), ("c", "p", 70), ("b", "q", 90)])
        assert_counts_match_full(proj)
        assert proj.evict_before(65).touched_pages == frozenset({pid})
        assert_counts_match_full(proj)

    def test_delta_names_exactly_what_moved(self):
        from repro.projection.incremental import ProjectionDelta

        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments([("a", "p", 0), ("b", "p", 10)])
        a, b, c = (proj.user_names.intern(u) for u in "abc")
        p, q, r = (proj.page_names.intern(g) for g in "pqr")
        delta = ProjectionDelta()
        proj.insert(a, q, 0, delta)
        proj.insert(b, q, 10, delta)
        assert delta.pairs == {(a, b): 1}           # w' was 1 before
        assert delta.users == {a: 1, b: 1}          # P' was 1 each
        assert proj.pair_weights == {(a, b): 2}
        delta = ProjectionDelta()
        proj.insert(c, r, 0, delta)
        proj.insert(a, r, 0, delta)                 # pair (a, c) comes and goes
        proj.evict_before(1, delta)                 # a's and c's comments go
        assert delta.pairs == {(a, b): 2, (a, c): 0}
        assert proj.pair_weights == {}
        assert delta.pages == {p, q, r}
        assert_counts_match_full(proj)

    @settings(max_examples=60, deadline=None)
    @given(
        window=st.sampled_from(WINDOWS),
        steps=st.lists(
            st.one_of(
                st.lists(
                    st.tuples(
                        st.integers(0, 4),
                        st.integers(0, 2),
                        st.integers(0, 30).map(lambda k: 5 * k),
                    ),
                    min_size=1,
                    max_size=6,
                ),
                st.integers(0, 160),      # evict_before cutoff
            ),
            min_size=1,
            max_size=12,
        ),
        pair_batch=st.sampled_from([1, 7, 4_000_000]),
    )
    def test_property_every_add_and_evict_matches_full(
        self, window, steps, pair_batch
    ):
        # compact() recounts the live corpus in pair_batch-sized batches.
        proj = IncrementalProjector(TimeWindow(*window), pair_batch=pair_batch)
        for step in steps:
            if isinstance(step, list):
                for u, p, t in step:
                    proj.add_comments([(f"u{u}", f"p{p}", t)])
                    assert_counts_match_full(proj)
            else:
                proj.evict_before(step)
                assert_counts_match_full(proj)
        proj.compact()
        assert_counts_match_full(proj)
        # Evicting the rest subtracts every recounted per-triple count.
        proj.evict_before(10**6)
        assert_counts_match_full(proj)
        assert proj.memory_stats()["triple_rows"] == 0

    @settings(max_examples=30, deadline=None)
    @given(
        window=st.sampled_from(WINDOWS),
        rows=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 4),
                st.integers(0, 30).map(lambda k: 5 * k),
            ),
            max_size=40,
        ),
        n_partitions=st.integers(1, 4),
        pair_batch=st.sampled_from([1, 7, 4_000_000]),
    )
    def test_property_streaming_matches_project(
        self, window, rows, n_partitions, pair_batch
    ):
        triples = [(f"u{u}", f"p{p}", t) for u, p, t in rows]
        with tempfile.TemporaryDirectory() as spill:
            streamed = project_streaming(
                triples, TimeWindow(*window), spill, n_partitions,
                pair_batch=pair_batch,
            )
        direct = project(
            BipartiteTemporalMultigraph.from_comments(triples), TimeWindow(*window)
        )
        assert streamed.ci.edges.to_dict() == direct.ci.edges.to_dict()
        assert np.array_equal(streamed.ci.page_counts, direct.ci.page_counts)
        assert (
            streamed.stats["pair_observations"]
            == direct.stats["pair_observations"]
        )


@pytest.mark.slow
class TestSteadyStateMemory:
    """Satellite regression: interner growth under sustained churn must be
    reclaimed by compaction, keeping steady-state memory ~ the live window."""

    def test_churn_with_compaction_stays_bounded(self):
        proj = IncrementalProjector(TimeWindow(0, 60))
        horizon = 1_000
        peak_live = 0
        for epoch in range(40):
            base = epoch * 500
            proj.add_comments(
                (f"u{epoch}_{i}", f"p{epoch}_{i % 5}", base + i)
                for i in range(50)
            )
            proj.evict_before(base - horizon)
            stats = proj.memory_stats()
            peak_live = max(peak_live, stats["live_users"])
            if stats["interned_users"] > 4 * max(stats["live_users"], 32):
                proj.compact()
        # 40 epochs x 50 distinct users ingested; without compaction the
        # interner would hold all 2000. With it, it tracks the live set.
        stats = proj.memory_stats()
        assert stats["interned_users"] <= 4 * max(stats["live_users"], 32)
        assert stats["interned_users"] <= 600 < 40 * 50
        assert_matches_full(proj)
