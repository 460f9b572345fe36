"""Tests for the end-to-end pipeline orchestration."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import AuthorFilter, EdgeList
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.pipeline.framework import component_reports
from repro.projection import CommonInteractionGraph, TimeWindow, project


@pytest.fixture(scope="module")
def result(small_dataset):
    pipe = CoordinationPipeline(
        PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=10)
    )
    return pipe.run(small_dataset.btm)


class TestRun:
    def test_filter_applied(self, result):
        assert "AutoModerator" in result.filter_report.removed_names

    def test_ci_matches_direct_projection(self, result, small_dataset):
        filtered, _ = AuthorFilter().apply(small_dataset.btm)
        direct = project(filtered, TimeWindow(0, 60))
        assert result.ci.edges.to_dict() == direct.ci.edges.to_dict()

    def test_triangles_respect_cutoff(self, result):
        if result.n_triangles:
            assert (result.triangles.min_weights() >= 10).all()

    def test_t_scores_aligned_and_bounded(self, result):
        assert result.t_scores.shape[0] == result.n_triangles
        assert (result.t_scores >= 0).all() and (result.t_scores <= 1).all()

    def test_triplet_metrics_aligned(self, result):
        m = result.triplet_metrics
        assert m is not None
        assert m.n_triplets == result.n_triangles
        assert (m.c_scores >= 0).all() and (m.c_scores <= 1).all()

    def test_components_have_min_size(self, result):
        for comp in result.components:
            assert comp.size >= result.config.min_component_size

    def test_component_weight_ranges_above_cutoff(self, result):
        for comp in result.components:
            assert comp.weight_min >= 10

    def test_component_names_resolved(self, result):
        names = result.component_name_lists()
        assert all(isinstance(n, str) for comp in names for n in comp)

    def test_stats_and_timings(self, result):
        assert result.stats["triangles"] == result.n_triangles
        assert result.stats["components"] == len(result.components)
        assert result.timings.total > 0

    def test_summary_renders(self, result):
        text = result.summary()
        assert "CI graph" in text and "triangles" in text

    def test_hypergraph_can_be_skipped(self, small_dataset):
        pipe = CoordinationPipeline(
            PipelineConfig(
                window=TimeWindow(0, 60),
                min_triangle_weight=10,
                compute_hypergraph=False,
            )
        )
        res = pipe.run(small_dataset.btm)
        assert res.triplet_metrics is None

    def test_bucketed_projection_equivalent(self, small_dataset):
        base = PipelineConfig(window=TimeWindow(0, 120), min_triangle_weight=10)
        bucketed = PipelineConfig(
            window=TimeWindow(0, 120),
            min_triangle_weight=10,
            time_bucket_width=40,
        )
        r1 = CoordinationPipeline(base).run(small_dataset.btm)
        r2 = CoordinationPipeline(bucketed).run(small_dataset.btm)
        assert r1.ci.edges.to_dict() == r2.ci.edges.to_dict()
        assert r1.triangles.as_tuples() == r2.triangles.as_tuples()

    def test_triangles_canonically_sorted(self, result):
        # run() canonicalizes, so output is element-for-element comparable
        # across executors and shard counts.
        t = result.triangles
        order = np.lexsort((t.c, t.b, t.a))
        assert np.array_equal(order, np.arange(t.n_triangles))

    def test_triangles_derive_from_thresholded_artifact(self, result):
        # Regression: run() used to re-threshold ci.edges for the survey,
        # which could diverge from the reported ci_thresholded artifact.
        from repro.tripoll import survey_triangles

        from_artifact = survey_triangles(
            result.ci_thresholded.edges
        ).sorted_canonical()
        assert from_artifact.as_tuples() == result.triangles.as_tuples()
        assert np.array_equal(from_artifact.w_ab, result.triangles.w_ab)

    def test_filter_off_keeps_automod(self, small_dataset):
        pipe = CoordinationPipeline(
            PipelineConfig(
                window=TimeWindow(0, 60),
                min_triangle_weight=10,
                author_filter=AuthorFilter.none(),
                compute_hypergraph=False,
            )
        )
        res = pipe.run(small_dataset.btm)
        assert res.filter_report.removed_comments == 0
        automod_id = small_dataset.btm.user_names.id_of("AutoModerator")
        assert res.ci.page_counts[automod_id] > 0


class TestDetection:
    def test_botnets_recovered_at_cutoff(self, small_dataset):
        from repro.datagen import score_detection

        pipe = CoordinationPipeline(
            PipelineConfig(
                window=TimeWindow(0, 60),
                min_triangle_weight=15,
                compute_hypergraph=False,
            )
        )
        res = pipe.run(small_dataset.btm)
        scores = score_detection(
            small_dataset.truth, res.component_name_lists()
        )
        for name, score in scores.items():
            assert score.recall >= 0.6, f"{name} under-recovered: {score}"
            assert score.precision >= 0.8, f"{name} imprecise: {score}"

    def test_greedy_clique_bound_on_reshare_core(self, small_dataset):
        pipe = CoordinationPipeline(
            PipelineConfig(
                window=TimeWindow(0, 60),
                min_triangle_weight=15,
                compute_hypergraph=False,
            )
        )
        res = pipe.run(small_dataset.btm)
        reshare_comps = [
            c
            for c in res.components
            if any("restream" in n for n in c.member_names)
        ]
        assert reshare_comps
        # The 5-account core reacts to every trigger: a dense clique.
        assert reshare_comps[0].max_clique_lower_bound >= 4


class TestComponentReports:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("min_size", [2, 3])
    def test_fields_match_networkx_induced_subgraph(self, seed, min_size):
        # Sparse edges over a wide id space: component ids are scattered.
        rng = np.random.default_rng(seed)
        n = 300
        src, dst = rng.integers(0, n, (2, 120))
        keep = src != dst
        edges = EdgeList(src[keep], dst[keep], rng.integers(1, 50, int(keep.sum())))
        edges = edges.accumulate()
        ci = CommonInteractionGraph(edges, np.ones(n, np.int64), TimeWindow(0, 60))
        g = nx.Graph()
        for s, d, w in zip(edges.src.tolist(), edges.dst.tolist(), edges.weight.tolist()):
            g.add_edge(s, d, weight=w)
        reports = component_reports(ci, min_size)
        assert [list(r.members) for r in reports] == ci.components(min_size)
        assert any(
            np.diff(r.members).max() > 1 for r in reports
        ), "no component has non-contiguous ids"
        for r in reports:
            sub = g.subgraph(r.members)
            weights = [w for _, _, w in sub.edges(data="weight")]
            assert r.n_edges == sub.number_of_edges()
            assert (r.weight_min, r.weight_max) == (min(weights), max(weights))
            assert r.density == nx.density(sub)
