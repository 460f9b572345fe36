"""Tests for the online DetectionEngine (dirty-set maintenance + queries)."""

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.filters import AuthorFilter
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow
from repro.serve.engine import DetectionEngine, ScoringCore
from repro.verify.online import _check

pytestmark = pytest.mark.serve


def make_engine(**overrides) -> DetectionEngine:
    defaults = dict(
        window=TimeWindow(0, 60),
        min_triangle_weight=1,
        min_component_size=2,
        compute_hypergraph=True,
        author_filter=AuthorFilter.none(),
    )
    defaults.update(overrides)
    return DetectionEngine(PipelineConfig(**defaults))


TRIANGLE = [("a", "p", 0), ("b", "p", 10), ("c", "p", 20)]


class TestIngestAndAdvance:
    def test_triangle_appears_on_ingest(self):
        eng = make_engine()
        report = eng.ingest(TRIANGLE)
        assert report.n_appended == 3 and report.triangles_added == 1
        assert eng.n_triangles == 1

    def test_triangle_leaves_when_window_slides(self):
        eng = make_engine()
        eng.ingest(TRIANGLE)
        report = eng.advance(1_000)
        assert report.n_evicted == 3 and report.triangles_removed == 1
        assert eng.n_triangles == 0 and eng.n_live_comments == 0

    def test_late_event_dropped_after_advance(self):
        eng = make_engine()
        eng.ingest(TRIANGLE)
        eng.advance(500)
        report = eng.ingest([("x", "q", 100)])      # older than the cutoff
        assert report.n_late_dropped == 1 and report.n_appended == 0

    def test_cutoff_is_monotone(self):
        eng = make_engine()
        eng.advance(500)
        eng.advance(100)                            # stale watermark
        assert eng.evict_cutoff == 500

    def test_author_filter_applies_at_ingest(self):
        eng = make_engine(author_filter=AuthorFilter())
        report = eng.ingest([("AutoModerator", "p", 0), ("a", "p", 5)])
        assert report.n_filtered == 1 and report.n_appended == 1
        assert "AutoModerator" not in eng.live_authors()

    def test_dirty_user_rescores_untouched_triangle(self):
        """a's P' and page set move on a page the triangle never saw: no
        edge of a-b-c changes, yet its T and C must be rescored."""
        eng = make_engine(min_triangle_weight=2)
        eng.ingest(TRIANGLE + [("a", "q", 0), ("b", "q", 5), ("c", "q", 9)])
        before = eng.top_k_triplets(1)[0]
        report = eng.ingest([("a", "r", 0), ("d", "r", 5)])
        assert report.dirty_edges == 1 and report.rescored_triangles == 1
        after = eng.top_k_triplets(1)[0]
        assert after["authors"] == ("a", "b", "c") and after["weights"] == (2, 2, 2)
        assert after["t"] < before["t"] and after["c"] < before["c"]
        live = TRIANGLE + [("a", "q", 0), ("b", "q", 5), ("c", "q", 9),
                           ("a", "r", 0), ("d", "r", 5)]
        assert _check("dirty user", eng.config, live, eng) == []
        report = eng.advance(1)                 # a leaves p, q and r
        assert report.rescored_triangles == 0 and eng.n_triangles == 0

    def test_incremental_updates_touch_only_dirty_pages(self):
        eng = make_engine()
        eng.ingest(TRIANGLE)
        report = eng.ingest([("x", "q", 0), ("y", "q", 5)])
        assert report.touched_pages == 1            # only q reprojected
        assert report.rescored_triangles == 0       # a-b-c untouched


class TestQueries:
    def test_top_k_ranking_and_tiebreak(self):
        eng = make_engine()
        eng.ingest(TRIANGLE + [("a", "q", 0), ("b", "q", 5), ("c", "q", 10)])
        rows = eng.top_k_triplets(5, by="t")
        assert rows[0]["authors"] == ("a", "b", "c")
        assert rows[0]["min_weight"] == 2

    def test_top_k_by_c_requires_hypergraph(self):
        eng = make_engine(compute_hypergraph=False)
        eng.ingest(TRIANGLE)
        with pytest.raises(ValueError):
            eng.top_k_triplets(1, by="c")
        with pytest.raises(ValueError):
            eng.top_k_triplets(1, by="volume")

    def test_user_score_present_and_absent(self):
        eng = make_engine()
        eng.ingest(TRIANGLE)
        row = eng.user_score("a")
        assert row["present"] and row["degree"] == 2 and row["n_triplets"] == 1
        assert row["best_t"] > 0
        ghost = eng.user_score("nobody")
        assert not ghost["present"] and ghost["degree"] == 0

    def test_component_of_and_components(self):
        eng = make_engine()
        eng.ingest(TRIANGLE + [("x", "q", 0), ("y", "q", 5)])
        assert eng.component_of("a") == ["a", "b", "c"]
        assert eng.component_of("nobody") == []
        assert eng.components() == [["a", "b", "c"], ["x", "y"]]

    def test_status_shape(self):
        eng = make_engine()
        eng.ingest(TRIANGLE)
        status = eng.status()
        assert status["live_comments"] == 3
        assert status["triangles"] == 1
        assert "metrics" in status and "counters" in status["metrics"]


class TestScoringCore:
    def test_core_loaded_from_name_keyed_ledgers_answers_like_the_engine(self):
        # What page mode does: export an engine's ledgers by name, load
        # them into a bare core.  Ids there are names, and sort
        # differently from the engine's first-seen interner ids.
        eng = make_engine()
        eng.ingest(
            [("zed", "p", 0), ("amy", "p", 5), ("kim", "p", 9)]
            + TRIANGLE
            + [("x", "q", 0), ("y", "q", 5), ("kim", "q", 7), ("a", "r", 0)]
        )
        core = ScoringCore(
            eng.config,
            pair_weights=eng.ci_edges(),
            page_counts=eng.page_counts(),
            incidence=eng.live_incidence(),
        )
        assert core.n_triangles == eng.n_triangles > 1
        for by in ("t", "c", "min_weight"):
            assert core.top_k_triplets(50, by=by) == eng.top_k_triplets(50, by=by)
        for author in eng.live_authors() + ["nobody"]:
            assert core.user_score(author) == eng.user_score(author)
            assert core.component_of(author) == eng.component_of(author)
        assert core.components() == eng.components()
        assert core.ci_edges() == eng.ci_edges()
        assert core.page_counts() == eng.page_counts()


class TestSnapshot:
    def test_snapshot_matches_batch_run(self):
        comments = TRIANGLE + [
            ("a", "q", 0), ("b", "q", 5), ("d", "q", 30), ("d", "r", 0)
        ]
        eng = make_engine()
        eng.ingest(comments)
        snap = eng.snapshot()
        batch = CoordinationPipeline(eng.config).run(
            BipartiteTemporalMultigraph.from_comments(comments)
        )
        assert snap.ci.edges.to_dict() == batch.ci.edges.to_dict()
        assert np.array_equal(snap.ci.page_counts, batch.ci.page_counts)
        assert snap.triangles.as_tuples() == batch.triangles.as_tuples()
        assert np.array_equal(snap.t_scores, batch.t_scores)
        assert np.array_equal(
            snap.triplet_metrics.c_scores, batch.triplet_metrics.c_scores
        )
        assert [c.member_names for c in snap.components] == [
            c.member_names for c in batch.components
        ]

    def test_snapshot_empty_engine(self):
        snap = make_engine().snapshot()
        assert snap.n_triangles == 0 and snap.components == []

    def test_snapshot_records_filter_report(self):
        eng = make_engine(author_filter=AuthorFilter())
        eng.ingest([("AutoModerator", "p", 0)] + TRIANGLE)
        snap = eng.snapshot()
        assert snap.filter_report.removed_comments == 1
        assert "AutoModerator" in snap.filter_report.removed_names


class TestCompaction:
    def test_queries_survive_compaction(self):
        eng = make_engine()
        eng.ingest([("old1", "op", 0), ("old2", "op", 5)])
        eng.ingest(TRIANGLE)
        eng.advance(0)
        eng.ingest([(f"u{i}", "fill", 10) for i in range(4)])
        eng.advance(5)                   # old1/old2 and the early rows die
        before = eng.top_k_triplets(10)
        comps_before = eng.components()
        eng.compact()
        assert eng.top_k_triplets(10) == before
        assert eng.components() == comps_before

    def test_auto_compaction_fires_under_churn(self):
        eng = DetectionEngine(
            PipelineConfig(
                window=TimeWindow(0, 60),
                min_triangle_weight=1,
                author_filter=AuthorFilter.none(),
            ),
            compact_min=8,
            compact_ratio=1.5,
        )
        for epoch in range(12):
            base = epoch * 100
            eng.ingest(
                [(f"u{epoch}_{i}", f"p{epoch}", base + i) for i in range(6)]
            )
            eng.advance(base - 50)
        assert eng.metrics.counter("engine.compactions").value > 0
        stats = eng.proj.memory_stats()
        assert stats["interned_users"] <= max(8, 1.5 * stats["live_users"]) + 6


class TestMetricsEvidence:
    def test_dirty_set_counters_expose_incrementality(self):
        eng = make_engine()
        eng.ingest(TRIANGLE)
        base = eng.metrics.counter("engine.rescored_triangles").value
        eng.ingest([("x", "zzz", 0)])    # disjoint page: no dirty triangles
        assert eng.metrics.counter("engine.rescored_triangles").value == base
        assert eng.metrics.gauge("engine.last_dirty_edges").value == 0
        assert eng.metrics.histogram("engine.update").count >= 2
