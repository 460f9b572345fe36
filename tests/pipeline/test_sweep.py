"""Tests for the parameter-sweep API."""

import math

import pytest

from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.pipeline.sweep import detection_curve, run_sweep
from repro.projection import TimeWindow


class TestRunSweep:
    def test_grid_shape(self, small_dataset):
        points = run_sweep(
            small_dataset.btm,
            [TimeWindow(0, 60), TimeWindow(0, 120)],
            [10, 20],
        )
        assert len(points) == 4
        assert {(str(p.window), p.cutoff) for p in points} == {
            ("(0s, 60s)", 10),
            ("(0s, 60s)", 20),
            ("(0s, 120s)", 10),
            ("(0s, 120s)", 20),
        }

    def test_matches_single_runs(self, small_dataset):
        points = run_sweep(small_dataset.btm, [TimeWindow(0, 60)], [15])
        single = CoordinationPipeline(
            PipelineConfig(
                window=TimeWindow(0, 60),
                min_triangle_weight=15,
                compute_hypergraph=False,
            )
        ).run(small_dataset.btm)
        p = points[0]
        assert p.n_triangles == single.n_triangles
        assert p.n_components == len(single.components)
        assert p.n_ci_edges == single.ci.n_edges

    def test_monotone_in_cutoff(self, small_dataset):
        points = run_sweep(
            small_dataset.btm, [TimeWindow(0, 60)], [5, 15, 30]
        )
        tri = [p.n_triangles for p in points]
        assert tri == sorted(tri, reverse=True)

    def test_truth_scoring(self, small_dataset):
        points = run_sweep(
            small_dataset.btm,
            [TimeWindow(0, 60)],
            [15],
            truth=small_dataset.truth,
        )
        assert 0.0 <= points[0].mean_precision <= 1.0
        assert 0.0 <= points[0].mean_recall <= 1.0

    def test_without_truth_scores_nan(self, small_dataset):
        points = run_sweep(small_dataset.btm, [TimeWindow(0, 60)], [15])
        assert math.isnan(points[0].mean_precision)

    def test_empty_grid_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            run_sweep(small_dataset.btm, [], [10])
        with pytest.raises(ValueError):
            run_sweep(small_dataset.btm, [TimeWindow(0, 60)], [])

    def test_base_config_executor_is_kept(self, small_dataset, monkeypatch):
        used = []
        build = CoordinationPipeline.build_executor

        def spy(pipeline):
            used.append((pipeline.config.executor, pipeline.config.n_workers))
            return build(pipeline)

        monkeypatch.setattr(CoordinationPipeline, "build_executor", spy)
        points = run_sweep(
            small_dataset.btm,
            [TimeWindow(0, 60)],
            [10, 15],
            base_config=PipelineConfig(executor="parallel", n_workers=2),
        )
        assert used == [("parallel", 2)] * 2
        serial = run_sweep(small_dataset.btm, [TimeWindow(0, 60)], [10, 15])
        assert [p.n_triangles for p in points] == [p.n_triangles for p in serial]

    def test_row_rendering(self, small_dataset):
        points = run_sweep(small_dataset.btm, [TimeWindow(0, 60)], [15])
        row = points[0].row()
        assert row["window"] == "(0s, 60s)" and row["cutoff"] == 15


class TestDetectionCurve:
    def test_recall_non_increasing_in_cutoff(self, small_dataset):
        curve = detection_curve(
            small_dataset.btm,
            small_dataset.truth,
            TimeWindow(0, 60),
            [5, 15, 30, 60],
        )
        recalls = [p.mean_recall for p in curve]
        # Higher cutoffs can only remove edges (the §2.3 omission risk).
        for earlier, later in zip(recalls, recalls[1:]):
            assert later <= earlier + 1e-9
