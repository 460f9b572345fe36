"""Tests for the multi-layer parity harness (`verify --layers`)."""

import pytest

from repro.datagen import RedditDatasetBuilder
from repro.projection import TimeWindow
from repro.verify import run_layer_parity

pytestmark = [pytest.mark.layers, pytest.mark.slow]

WINDOW = TimeWindow(0, 60)


@pytest.fixture(scope="module")
def report():
    dataset = RedditDatasetBuilder.multilayer(seed=11, scale=0.03).build()
    return run_layer_parity(
        dataset.records, WINDOW, min_edge_weight=5, parallel_workers=1
    )


class TestRunLayerParity:
    def test_full_sweep_is_ok(self, report):
        assert report.ok, report.describe()

    def test_covers_every_builtin_layer(self, report):
        layers = ["hashtag", "link", "page", "reply", "text"]
        assert report.facts["layers"] == layers
        assert list(report.facts["per_layer"]) == layers
        assert set(report.sections) == {*layers, "legacy", "fusion"}

    def test_every_layer_carries_events(self, report):
        assert all(
            sub.facts["n_comments"] > 0
            for sub in report.facts["per_layer"].values()
        )

    def test_describe_reports_all_three_checks(self, report):
        text = report.describe()
        assert "legacy byte-identity ok" in text
        assert "fusion determinism ok" in text
        assert "LAYER PARITY OK" in text
        for name in report.facts["layers"]:
            assert f"[{name}]" in text

    def test_layer_subset_skips_legacy_check_silently(self):
        dataset = RedditDatasetBuilder.multilayer(seed=11, scale=0.02).build()
        report = run_layer_parity(
            dataset.records, WINDOW, min_edge_weight=5,
            layers=["link", "hashtag"], parallel_workers=1,
        )
        assert report.facts["layers"] == ["hashtag", "link"]
        assert report.ok, report.describe()


class TestFailureReporting:
    def test_divergences_flip_ok_and_describe(self, report):
        report.sections["legacy"].append("synthetic divergence")
        try:
            assert not report.ok
            text = report.describe()
            assert "    - synthetic divergence" in text
            assert "LAYER PARITY FAILED — 1 divergence(s):" in text
        finally:
            report.sections["legacy"].clear()
