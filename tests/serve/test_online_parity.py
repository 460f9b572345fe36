"""Online-vs-batch parity: the serve engine's exactness contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow
from repro.verify.online import run_online_parity

pytestmark = pytest.mark.serve


def config(**overrides) -> PipelineConfig:
    defaults = dict(
        window=TimeWindow(0, 60),
        min_triangle_weight=2,
        min_component_size=2,
        compute_hypergraph=True,
        author_filter=AuthorFilter.none(),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def clustered_corpus(seed: int, n: int = 600):
    """A corpus with enough same-page density to form triangles."""
    import random

    rng = random.Random(seed)
    comments = []
    t = 0
    for _ in range(n):
        epoch = t // 800
        comments.append(
            (
                f"u{epoch % 3}_{rng.randrange(8)}",
                f"p{epoch % 3}_{rng.randrange(4)}",
                t + rng.randrange(-40, 40),
            )
        )
        t += rng.randrange(0, 12)
    return comments


class TestOnlineParity:
    def test_fifty_plus_randomized_steps(self):
        """The ISSUE's headline property: >= 50 interleaved steps of
        appends, out-of-order arrivals, and evictions, oracle-checked."""
        report = run_online_parity(
            clustered_corpus(seed=101),
            config(),
            n_steps=55,
            seed=7,
            check_every=5,
            compact_min=32,
        )
        assert report.ok, report.describe()
        assert report.facts["n_checks"] >= 11
        assert report.facts["n_advances"] > 0 and report.facts["n_ingested"] > 0
        assert report.facts["max_triangles"] > 0          # the run was not vacuous

    def test_parity_with_author_filter_and_late_drops(self):
        comments = clustered_corpus(seed=5, n=400)
        comments[::17] = [
            ("AutoModerator", p, t) for _a, p, t in comments[::17]
        ]
        report = run_online_parity(
            comments,
            config(author_filter=AuthorFilter()),
            n_steps=50,
            seed=3,
            check_every=10,
            horizon=300,          # narrow window: forces late arrivals
            max_delay=500,
        )
        assert report.ok, report.describe()
        assert report.facts["n_late_dropped"] > 0

    def test_parity_without_hypergraph(self):
        report = run_online_parity(
            clustered_corpus(seed=9, n=300),
            config(compute_hypergraph=False),
            n_steps=50,
            seed=1,
            check_every=25,
        )
        assert report.ok, report.describe()

    def test_report_describe_mentions_outcome(self):
        report = run_online_parity(
            clustered_corpus(seed=2, n=100), config(), n_steps=50, seed=0
        )
        text = report.describe()
        assert "ONLINE PARITY OK" in text and "seed 0" in text

    def test_empty_corpus(self):
        report = run_online_parity([], config(), n_steps=50, seed=0)
        assert report.ok and report.facts["n_comments"] == 0

    @settings(max_examples=15, deadline=None)
    @given(
        corpus_seed=st.integers(0, 1_000),
        run_seed=st.integers(0, 1_000),
    )
    def test_property_random_corpora_and_interleavings(
        self, corpus_seed, run_seed
    ):
        report = run_online_parity(
            clustered_corpus(seed=corpus_seed, n=200),
            config(min_triangle_weight=1),
            n_steps=50,
            seed=run_seed,
            check_every=17,
            compact_min=16,
        )
        assert report.ok, report.describe()


class TestHarnessCatchesBrokenEngine:
    def test_divergence_is_reported(self, monkeypatch):
        """A deliberately broken engine must produce divergences — the
        harness is only trustworthy if it can fail."""
        from repro.serve.engine import DetectionEngine

        original = DetectionEngine._rescore

        def broken(self, keys):
            original(self, keys)
            for key in keys:
                tri = self._tris.get(key)
                if tri is not None:
                    tri.t += 1.0          # corrupt every T score
        monkeypatch.setattr(DetectionEngine, "_rescore", broken)
        report = run_online_parity(
            clustered_corpus(seed=101),
            config(),
            n_steps=50,
            seed=7,
            check_every=10,
        )
        assert not report.ok
        assert any("triplets" in d for d in report.divergences)
        assert "ONLINE PARITY FAILED" in report.describe()
