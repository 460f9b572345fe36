"""End-to-end integration: the paper's workflow on ground-truth corpora."""

import numpy as np
import pytest

from repro.analysis import census_components, score_figure, weight_figure
from repro.datagen import RedditDatasetBuilder, score_detection
from repro.graph import AuthorFilter
from repro.hypergraph import agglomerate_groups
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.exec import YgmExecutor
from repro.projection import TimeWindow, project
from repro.tripoll import survey_triangles, survey_triangles_plan
from repro.ygm import YgmWorld


@pytest.fixture(scope="module")
def jan_dataset():
    return RedditDatasetBuilder.jan2020_like(seed=42, scale=0.5).build()


@pytest.fixture(scope="module")
def jan_result(jan_dataset):
    return CoordinationPipeline(
        PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=25)
    ).run(jan_dataset.btm)


class TestDetection:
    def test_gpt_and_restream_nets_recovered(self, jan_dataset, jan_result):
        scores = score_detection(
            jan_dataset.truth, jan_result.component_name_lists()
        )
        assert scores["gpt2"].f1 >= 0.9
        assert scores["restream"].f1 >= 0.8

    def test_helpful_bots_never_detected(self, jan_dataset, jan_result):
        detected = {
            name
            for comp in jan_result.component_name_lists()
            for name in comp
        }
        assert not (detected & jan_dataset.truth.helpful)

    def test_gpt_component_sparser_than_reshare(self, jan_dataset, jan_result):
        """Paper §3.1.2: share-reshare nets are denser than generation nets."""
        census = census_components(jan_result, jan_dataset.truth)
        gpt = next(c for c in census if c.label == "gpt2")
        reshare = next(c for c in census if c.label == "restream")
        assert reshare.report.density > gpt.report.density or (
            reshare.report.max_clique_lower_bound
            >= gpt.report.max_clique_lower_bound
        )

    def test_reshare_weights_spread_higher(self, jan_dataset, jan_result):
        """Paper: GPT edges 25–33 (low end), restream edges up to ~91."""
        census = census_components(jan_result, jan_dataset.truth)
        gpt = next(c for c in census if c.label == "gpt2")
        reshare = next(c for c in census if c.label == "restream")
        assert reshare.report.weight_max > gpt.report.weight_max

    def test_component_count_order_of_paper(self, jan_dataset, jan_result):
        """Paper: 39 components at cutoff 25 on Jan 2020."""
        assert 30 <= len(jan_result.components) <= 50

    def test_agglomeration_rebuilds_botnets(self, jan_dataset, jan_result):
        # Gate on w_xyz, not C: the paper notes the GPT net's random-subset
        # commenting "would potentially drive the coordination scores of
        # each triplet down" (§3.1.1), so a C threshold would exclude it.
        m = jan_result.triplet_metrics
        assert m is not None
        groups = agglomerate_groups(m, min_w_xyz=8)
        gpt_ids = set(jan_dataset.bot_user_ids("gpt2"))
        best = max(
            (len(gpt_ids & set(g.members)) / len(set(g.members) | gpt_ids))
            for g in groups
        )
        assert best >= 0.7


class TestMetricRelationships:
    def test_score_correlation_positive(self, jan_result):
        fig = score_figure(jan_result)
        assert fig.pearson_r > 0.3

    def test_weight_correlation_positive(self, jan_result):
        fig = weight_figure(jan_result)
        assert fig.pearson_r > 0.2

    def test_window_widening_tightens_score_relationship(self, jan_dataset):
        """Paper Figs. 5→7→9: longer windows pull C and T together."""
        rs = []
        for delta2 in (60, 600):
            res = CoordinationPipeline(
                PipelineConfig(
                    window=TimeWindow(0, delta2), min_triangle_weight=10
                )
            ).run(jan_dataset.btm)
            rs.append(score_figure(res).spearman_r)
        assert rs[1] >= rs[0] - 0.05  # monotone up to small noise


class TestCrossEngineConsistency:
    def test_ygm_stages_match_at_month_scale(self, jan_dataset):
        btm, _ = AuthorFilter().apply(jan_dataset.btm)
        window = TimeWindow(0, 60)
        serial_proj = project(btm, window)
        with YgmWorld(3) as world:
            executor = YgmExecutor(world)
            dist_proj = project(btm, window, executor=executor)
            serial_tri = survey_triangles(
                serial_proj.ci.edges, min_edge_weight=25
            ).sorted_canonical()
            dist_tri = survey_triangles_plan(
                dist_proj.ci.edges, executor, min_edge_weight=25
            ).sorted_canonical()
        assert dist_proj.ci.edges.to_dict() == serial_proj.ci.edges.to_dict()
        assert np.array_equal(
            dist_proj.ci.page_counts, serial_proj.ci.page_counts
        )
        assert dist_tri.as_tuples() == serial_tri.as_tuples()
        assert np.array_equal(dist_tri.min_weights(), serial_tri.min_weights())


class TestOct2016Workflow:
    def test_election_net_recovered(self):
        ds = RedditDatasetBuilder.oct2016_like(seed=2016, scale=0.5).build()
        res = CoordinationPipeline(
            PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=10)
        ).run(ds.btm)
        scores = score_detection(ds.truth, res.component_name_lists())
        assert scores["election"].recall >= 0.4
        assert scores["election"].precision >= 0.9
