"""Tests for the differential engine-parity harness."""

import numpy as np
import pytest

from repro.projection import TimeWindow, project
from repro.projection.project import project_reference
from repro.tripoll.survey import TriangleSet
from repro.verify import (
    default_projection_engines,
    default_triangle_engines,
    default_validation_engines,
    run_parity,
    shrink_comments,
)

NS_EPOCH = 1_700_000_000_000_000_000

TRIANGLE_CORPUS = [
    ("a", "p", 0),
    ("b", "p", 30),
    ("c", "p", 45),
    ("a", "q", 5),
    ("b", "q", 20),
    ("c", "q", 50),
    ("d", "q", 5000),
]


class TestAgreement:
    def test_all_engines_agree_on_triangle_corpus(self):
        report = run_parity(TRIANGLE_CORPUS, TimeWindow(0, 60), min_edge_weight=1)
        assert report.ok
        assert report.facts["n_edges"] == 3
        assert report.facts["n_triangles"] == 1
        assert report.counterexample is None
        assert "PARITY OK" in report.describe()

    def test_all_engines_agree_on_random_corpus(self, random_btm):
        comments = list(
            zip(
                random_btm.users.tolist(),
                random_btm.pages.tolist(),
                random_btm.times.tolist(),
            )
        )
        report = run_parity(comments, TimeWindow(0, 300), min_edge_weight=2)
        assert report.ok, report.describe()


class TestEdgeCases:
    """The boundary inputs every engine must treat identically."""

    def test_empty_corpus(self):
        report = run_parity([], TimeWindow(0, 60))
        assert report.ok and report.facts["n_edges"] == 0 and report.facts["n_triangles"] == 0

    def test_single_comment(self):
        report = run_parity([("a", "p", 7)], TimeWindow(0, 60))
        assert report.ok and report.facts["n_edges"] == 0

    def test_degenerate_window_delta1_equals_delta2(self):
        comments = [
            ("a", "p", 0),
            ("b", "p", 30),   # exactly delta
            ("c", "p", 29),   # one tick off
        ]
        report = run_parity(comments, TimeWindow(30, 30))
        assert report.ok, report.describe()
        assert report.facts["n_edges"] == 1  # only the exact-delay pair

    def test_all_equal_timestamps(self):
        comments = [(name, "p", 100) for name in "abcd"]
        report = run_parity(comments, TimeWindow(0, 60), min_edge_weight=1)
        assert report.ok, report.describe()
        assert report.facts["n_edges"] == 6  # every pair at delay 0
        assert report.facts["n_triangles"] == 4

    def test_ns_scale_timestamps(self):
        # Would overflow the unguarded key encoding (see
        # tests/projection/test_overflow.py for the arithmetic).
        rng = np.random.default_rng(5)
        comments = []
        for p in range(40):
            t0 = NS_EPOCH + int(rng.integers(0, 3 * 10**16))
            for _ in range(3):
                comments.append(
                    (int(rng.integers(0, 12)), p, t0 + int(rng.integers(0, 100)))
                )
        report = run_parity(comments, TimeWindow(0, 60))
        assert report.ok, report.describe()


class TestBrokenEngineDetection:
    def test_broken_projection_engine_yields_shrunk_counterexample(self):
        def broken(btm, window):
            # Off-by-one window: silently drops the boundary delay.
            return project(btm, TimeWindow(window.delta1, window.delta2 - 1))

        engines = default_projection_engines()
        engines["broken"] = broken
        comments = [
            ("a", "p", 0),
            ("b", "p", 60),  # the pair the bug loses
            ("x", "z", 1),
            ("y", "z", 500),
            ("c", "q", 3),
            ("d", "q", 40),
        ]
        report = run_parity(
            comments, TimeWindow(0, 60), projection_engines=engines
        )
        assert not report.ok
        assert any("broken" in d for d in report.divergences)
        # Shrunk to exactly the two comments at the boundary delay.
        assert sorted(report.counterexample) == [("a", "p", 0), ("b", "p", 60)]
        assert "PARITY FAILED" in report.describe()

    def test_broken_triangle_engine_detected(self):
        def drops_first_triangle(edges, min_w):
            full = default_triangle_engines()["brute"](edges, min_w)
            mask = np.ones(full.n_triangles, dtype=bool)
            if full.n_triangles:
                mask[0] = False
            return full.filter_mask(mask)

        tri = default_triangle_engines()
        tri["lossy"] = drops_first_triangle
        report = run_parity(
            TRIANGLE_CORPUS,
            TimeWindow(0, 60),
            min_edge_weight=1,
            triangle_engines=tri,
        )
        assert not report.ok
        assert any("triangles[lossy]" in d for d in report.divergences)

    def test_wrong_weight_detected_not_just_wrong_ids(self):
        def inflated(edges, min_w):
            full = default_triangle_engines()["brute"](edges, min_w)
            return TriangleSet(
                full.a, full.b, full.c,
                full.w_ab + 1, full.w_ac, full.w_bc,
            )

        tri = default_triangle_engines()
        tri["inflated"] = inflated
        report = run_parity(
            TRIANGLE_CORPUS,
            TimeWindow(0, 60),
            min_edge_weight=1,
            triangle_engines=tri,
            shrink=False,
        )
        assert not report.ok
        assert any("w_ab" in d for d in report.divergences)


    def test_broken_validation_kernel_detected(self):
        def undercounts(inc, triangles):
            w = default_validation_engines()["reference"](inc, triangles)
            return np.maximum(w - 1, 0)

        val = default_validation_engines()
        val["undercount"] = undercounts
        report = run_parity(
            TRIANGLE_CORPUS,
            TimeWindow(0, 60),
            min_edge_weight=1,
            validation_engines=val,
            shrink=False,
        )
        assert "validation engines:" in report.describe()
        assert not report.ok
        assert any("validation[undercount]" in d for d in report.divergences)
        assert all("plan[" not in d for d in report.divergences)


class TestShrinking:
    def test_requires_failing_input(self):
        with pytest.raises(ValueError):
            shrink_comments([("a", "p", 0)], lambda c: False)

    def test_one_minimal(self):
        # Failure: any list containing both marker comments.
        markers = {("a", "p", 0), ("b", "p", 60)}
        noise = [(f"u{i}", "q", i * 1000) for i in range(20)]
        comments = noise[:10] + [("a", "p", 0)] + noise[10:] + [("b", "p", 60)]
        result = shrink_comments(
            comments, lambda c: markers <= set(c)
        )
        assert sorted(result) == sorted(markers)


class TestOracleFirstConvention:
    def test_reference_engines_lead_the_registries(self):
        assert next(iter(default_projection_engines())) == "reference"
        assert next(iter(default_triangle_engines())) == "brute"
        assert next(iter(default_validation_engines())) == "reference"

    def test_reference_is_the_verbatim_transcription(self):
        assert default_projection_engines()["reference"] is project_reference
