"""The three step plans on every executor: one matrix, one oracle each.

{PROJECTION, SURVEY, VALIDATION} × {serial, parallel, YGM serial backend
at 1–3 ranks, YGM mp backend} × forced shard counts must equal the
reference oracles bit for bit, and the pipeline — which is those three
plans on one executor — must return ``diff_results``-identical results
on every executor, with and without checkpoint/resume.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.exec import ParallelExecutor, SerialExecutor, YgmExecutor
from repro.graph import BipartiteTemporalMultigraph, EdgeList
from repro.hypergraph import UserPageIncidence, evaluate_triplets
from repro.kernels import hyperedge_count_reference
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow, project, project_reference
from repro.tripoll import TriangleSet, survey_triangles_plan, triangles_brute
from repro.verify import diff_results
from repro.ygm import YgmWorld
from tests.conftest import random_edgelist

SHARD_COUNTS = [None, 1, 3, 7]  # None = the executor's own sizing
PLAN_NAMES = ["projection", "survey", "validation"]


class Recording:
    """Delegates to a real executor, recording ``(plan, n_shards)`` per run."""

    def __init__(self, inner):
        self.inner = inner
        self.dispatched = []

    def shard_count(self, n_items, items_per_second):
        return self.inner.shard_count(n_items, items_per_second)

    def run(self, plan, shards, context=None):
        self.dispatched.append((plan.name, len(shards)))
        return self.inner.run(plan, shards, context)


@contextmanager
def _open(kind, size, backend):
    if kind == "serial":
        yield SerialExecutor()
    elif kind == "parallel":
        with ParallelExecutor(size) as ex:
            yield ex
    else:
        with YgmWorld(size, backend=backend) as world:
            yield YgmExecutor(world)


@pytest.fixture(
    scope="module",
    params=[
        ("serial", 1, None),
        ("parallel", 2, None),
        ("ygm", 1, "serial"),
        ("ygm", 2, "serial"),
        ("ygm", 3, "serial"),
        ("ygm", 2, "mp"),
    ],
    ids=lambda p: "-".join(str(x) for x in p if x is not None),
)
def executor(request):
    with _open(*request.param) as ex:
        yield Recording(ex)


def assert_triangles_equal(got: TriangleSet, ref: TriangleSet):
    got, ref = got.sorted_canonical(), ref.sorted_canonical()
    for fld in ("a", "b", "c", "w_ab", "w_ac", "w_bc"):
        assert np.array_equal(getattr(got, fld), getattr(ref, fld)), fld


class TestProjectionPlan:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_matches_reference(self, executor, random_btm, n_shards):
        window = TimeWindow(0, 120)
        ref = project_reference(random_btm, window)
        got = project(random_btm, window, executor=executor, n_shards=n_shards)
        assert got.ci.edges.to_dict() == ref.ci.edges.to_dict()
        assert np.array_equal(got.ci.page_counts, ref.ci.page_counts)
        assert got.stats == ref.stats

    def test_tiny_stats(self, executor, tiny_btm):
        got = project(tiny_btm, TimeWindow(0, 60), executor=executor)
        assert got.stats["pages_visited"] == 3
        assert got.stats["comments_scanned"] == 8
        assert got.stats["ci_edges"] == 3

    def test_empty_input(self, executor):
        btm = BipartiteTemporalMultigraph.from_comments([])
        got = project(btm, TimeWindow(0, 60), executor=executor)
        assert got.ci.n_edges == 0


class TestSurveyPlan:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("min_w", [0, 12])
    def test_matches_brute(self, executor, n_shards, min_w):
        el = random_edgelist(50, n_vertices=40, n_edges=200)
        got = survey_triangles_plan(el, executor, n_shards, min_edge_weight=min_w)
        ref = triangles_brute(el.threshold(min_w) if min_w else el)
        assert ref.n_triangles > 0
        assert_triangles_equal(got, ref)

    def test_tiny_wedge_batch_splits_but_changes_nothing(self, executor):
        """``wedge_batch`` caps every shard whatever the executor's sizing."""
        el = random_edgelist(52, n_vertices=25, n_edges=100)
        got = survey_triangles_plan(el, executor, wedge_batch=20)
        assert executor.dispatched[-1][0] == "survey"
        assert executor.dispatched[-1][1] >= 2
        assert_triangles_equal(got, triangles_brute(el))

    def test_empty_graph(self, executor):
        got = survey_triangles_plan(EdgeList.empty(), executor)
        assert got.n_triangles == 0

    def test_huge_vertex_ids(self, executor):
        big = 4_000_000_000  # big**2 > 2**63 - 1
        el = EdgeList([0, 0, big], [big, big + 1, big + 1], [5, 4, 3])
        ts = survey_triangles_plan(el, executor)
        assert ts.as_tuples() == {(0, big, big + 1)}
        assert ts.min_weights().tolist() == [3]


class TestValidationPlan:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_matches_reference(self, executor, random_btm, n_shards):
        ci = project(random_btm, TimeWindow(0, 300)).ci
        triangles = survey_triangles_plan(ci.edges, SerialExecutor())
        inc = UserPageIncidence.from_btm(random_btm)
        got = evaluate_triplets(
            inc, triangles, executor=executor, n_shards=n_shards
        )
        assert got.n_triplets > 0
        assert np.array_equal(
            got.w_xyz,
            hyperedge_count_reference(
                inc.indptr, inc.page_ids, triangles.a, triangles.b, triangles.c
            ),
        )
        serial = evaluate_triplets(inc, triangles)
        assert np.array_equal(got.p_sum, serial.p_sum)
        assert np.array_equal(got.c_scores, serial.c_scores)

    def test_empty_triangles(self, executor, tiny_btm):
        inc = UserPageIncidence.from_btm(tiny_btm)
        got = evaluate_triplets(inc, TriangleSet.empty(), executor=executor)
        assert got.n_triplets == 0


class TestPipelineOnExecutors:
    CONFIG = PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=10)

    @pytest.fixture(scope="class")
    def reference(self, small_dataset):
        return CoordinationPipeline(self.CONFIG).run(small_dataset.btm)

    def test_run_matches_default_run(self, executor, small_dataset, reference):
        before = len(executor.dispatched)
        got = CoordinationPipeline(self.CONFIG).run(
            small_dataset.btm, executor=executor
        )
        assert diff_results(reference, got) == []
        assert np.array_equal(got.t_scores, reference.t_scores)
        assert [c.member_names for c in got.components] == [
            c.member_names for c in reference.components
        ]
        assert got.stats == reference.stats
        assert "AutoModerator" in got.filter_report.removed_names
        # All three steps went through the passed executor, in order; a
        # multi-rank YGM world gets >= 2 shards for each of them.
        ran = executor.dispatched[before:]
        assert [name for name, _ in ran] == PLAN_NAMES
        if getattr(getattr(executor.inner, "world", None), "n_ranks", 1) >= 2:
            assert all(n >= 2 for _, n in ran)

    def test_checkpoint_then_resume(
        self, executor, small_dataset, reference, tmp_path
    ):
        pipe = CoordinationPipeline(self.CONFIG)
        first = pipe.run(
            small_dataset.btm, executor=executor, checkpoint_dir=str(tmp_path)
        )
        assert diff_results(reference, first) == []
        resumed = pipe.run(
            small_dataset.btm, executor=executor, resume_from=str(tmp_path)
        )
        assert resumed.resumed_stages == (
            "step1.project",
            "step2.threshold",
            "step2.survey",
        )
        assert diff_results(reference, resumed) == []

    def test_bucketed_projection_takes_the_executor(
        self, executor, small_dataset, reference
    ):
        cfg = PipelineConfig(
            window=TimeWindow(0, 60),
            min_triangle_weight=10,
            time_bucket_width=20,
        )
        before = len(executor.dispatched)
        got = CoordinationPipeline(cfg).run(small_dataset.btm, executor=executor)
        assert diff_results(reference, got) == []
        assert [n for n, _ in executor.dispatched[before:]].count("projection") == 3

    def test_passed_executor_stays_open(self, small_dataset):
        with ParallelExecutor(2) as ex:
            CoordinationPipeline(self.CONFIG).run(small_dataset.btm, executor=ex)
            assert ex.alive  # run() closes only what it built
