"""The engine matrix: every execution path must produce identical results.

One corpus, one configuration, one ``run`` — on every executor and
through both memory workarounds:

1. the config's own serial executor (the reference),
2. time-bucketed projection,
3. streaming (out-of-core) projection,
4. a shared parallel pool passed as ``executor=``,
5. the YGM executor on the serial backend,
6. the YGM executor on the multiprocessing backend.

The CI graph, the surveyed triangles, and the hypergraph metrics must be
bit-identical across all of them — the strongest statement the suite
makes about the substrates' fidelity.
"""

import numpy as np
import pytest

from repro.exec import ParallelExecutor, YgmExecutor
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow, project_streaming
from repro.ygm import YgmWorld

CONFIG = PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=12)


@pytest.fixture(scope="module")
def reference(small_dataset):
    return CoordinationPipeline(CONFIG).run(small_dataset.btm)


def assert_equivalent(result, reference):
    assert result.ci.edges.to_dict() == reference.ci.edges.to_dict()
    assert np.array_equal(result.ci.page_counts, reference.ci.page_counts)
    assert result.triangles.as_tuples() == reference.triangles.as_tuples()
    if result.triplet_metrics and reference.triplet_metrics:
        assert np.array_equal(
            np.sort(result.triplet_metrics.w_xyz),
            np.sort(reference.triplet_metrics.w_xyz),
        )
    assert [c.members for c in result.components] == [
        c.members for c in reference.components
    ]


class TestEngineMatrix:
    def test_bucketed(self, small_dataset, reference):
        cfg = PipelineConfig(
            window=CONFIG.window,
            min_triangle_weight=CONFIG.min_triangle_weight,
            time_bucket_width=20,
        )
        assert_equivalent(
            CoordinationPipeline(cfg).run(small_dataset.btm), reference
        )

    def test_streaming_projection(self, small_dataset, reference, tmp_path):
        # The streaming path covers Step 1; Steps 2-3 consume its output.
        from repro.graph import AuthorFilter
        from repro.tripoll import survey_triangles

        filtered, _ = AuthorFilter().apply(small_dataset.btm)
        triples = [
            (filtered.user_name(int(u)), f"pg{int(p)}", int(t))
            for u, p, t in zip(filtered.users, filtered.pages, filtered.times)
        ]
        streamed = project_streaming(triples, CONFIG.window, tmp_path, 5)
        # Interners differ (names re-interned), so compare canonical forms
        # through names.
        def named_edges(ci):
            return {
                tuple(sorted((ci.author_name(s), ci.author_name(d)))): w
                for s, d, w in ci.edges
            }

        assert named_edges(streamed.ci) == named_edges(reference.ci)
        tri = survey_triangles(
            streamed.ci.edges, min_edge_weight=CONFIG.min_triangle_weight
        )
        assert tri.n_triangles == reference.n_triangles

    def test_parallel_executor(self, small_dataset, reference):
        with ParallelExecutor(2) as executor:
            result = CoordinationPipeline(CONFIG).run(
                small_dataset.btm, executor=executor
            )
        assert_equivalent(result, reference)

    @pytest.mark.parametrize("n_ranks, backend", [(3, "serial"), (2, "mp")])
    def test_ygm_executor(self, small_dataset, reference, n_ranks, backend):
        with YgmWorld(n_ranks, backend=backend) as world:
            result = CoordinationPipeline(CONFIG).run(
                small_dataset.btm, executor=YgmExecutor(world)
            )
        assert_equivalent(result, reference)
