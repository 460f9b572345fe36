"""Engine benchmarks — the performance ablations DESIGN.md §5 calls out.

1. Vectorized Algorithm 1 vs the verbatim reference transcription
   (identical output, the vectorized kernel is what makes month-scale
   projection feasible in Python).
2. The degree-ordered triangle survey vs networkx's enumeration and the
   O(n³) brute oracle.
3. Serial vs multiprocessing YGM backends carrying the same projection
   plan through a ``YgmExecutor`` (communication-pattern fidelity; on a single core the mp
   backend pays process overhead — the point is identical results, not
   speedup).
"""

import pytest

from repro.graph import AuthorFilter
from repro.projection import TimeWindow, project, project_reference
from repro.tripoll import survey_triangles
from tests.conftest import random_edgelist


@pytest.fixture(scope="module")
def medium_btm(oct2016):
    btm, _ = AuthorFilter().apply(oct2016.btm)
    # Trim to keep the quadratic reference engine affordable.
    t0, t1 = btm.time_span()
    return btm.time_slice(t0, t0 + (t1 - t0) // 4)


class TestProjectionEngines:
    def test_bench_projection_vectorized(self, benchmark, medium_btm):
        result = benchmark(project, medium_btm, TimeWindow(0, 120))
        assert result.ci.n_edges > 0

    def test_bench_projection_reference(self, benchmark, medium_btm, report_sink):
        window = TimeWindow(0, 120)
        result = benchmark.pedantic(
            project_reference, args=(medium_btm, window), rounds=1, iterations=1
        )
        fast = project(medium_btm, window)
        assert result.ci.edges.to_dict() == fast.ci.edges.to_dict()
        report_sink(
            "engines_projection",
            "Projection engines agree on "
            f"{result.ci.n_edges:,} edges over "
            f"{medium_btm.n_comments:,} comments "
            "(see pytest-benchmark table for the speed gap).",
        )


class TestTriangleEngines:
    EDGES = random_edgelist(400, n_vertices=300, n_edges=3000)

    def test_bench_tripoll_survey(self, benchmark):
        ts = benchmark(survey_triangles, self.EDGES)
        assert ts.n_triangles > 0

    def test_bench_networkx_triangles(self, benchmark):
        import networkx as nx

        g = self.EDGES.to_networkx()
        count = benchmark(lambda: sum(nx.triangles(g).values()) // 3)
        assert count == survey_triangles(self.EDGES).n_triangles


class TestYgmBackends:
    @pytest.mark.parametrize("backend", ["serial", "mp"])
    def test_bench_ygm_projection(self, benchmark, medium_btm, backend):
        from repro.exec import YgmExecutor
        from repro.ygm import YgmWorld

        def run():
            with YgmWorld(2, backend=backend) as world:
                return project(
                    medium_btm, TimeWindow(0, 60), executor=YgmExecutor(world)
                )

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert result.ci.edges.to_dict() == project(
            medium_btm, TimeWindow(0, 60)
        ).ci.edges.to_dict()


def _barabasi_albert_edges():
    """A 2000-vertex Barabási–Albert graph (6 edges per new vertex)."""
    import networkx as nx

    from repro.graph.edgelist import EdgeList

    return EdgeList.from_pairs(nx.barabasi_albert_graph(2000, 6, seed=99).edges())


class TestSkewedDegreeWorkload:
    """Triangle surveying on a preferential-attachment graph — the skewed
    degree distribution real CI graphs exhibit (hubs = megathread users),
    where the degree-ordered orientation earns its keep."""

    def test_bench_tripoll_pa_graph(self, benchmark):
        graph = _barabasi_albert_edges()
        ts = benchmark(survey_triangles, graph)
        assert ts.n_triangles > 0

    def test_bench_networkx_pa_graph(self, benchmark):
        import networkx as nx

        graph = _barabasi_albert_edges()
        g = graph.to_networkx()
        count = benchmark(lambda: sum(nx.triangles(g).values()) // 3)
        assert count == survey_triangles(graph).n_triangles


class TestIncrementalProjection:
    """Rolling update: re-projecting one new day of comments beats a full
    month re-projection by roughly the month/day ratio."""

    def test_bench_incremental_daily_update(self, benchmark, oct2016, report_sink):
        from repro.projection.incremental import IncrementalProjector
        from repro.util.timers import Timer

        records = oct2016.records
        split = int(len(records) * 29 / 30)  # 29 days ingested, 1 day new
        proj = IncrementalProjector(TimeWindow(0, 60))
        proj.add_comments(r.as_triple() for r in records[:split])
        new_day = [r.as_triple() for r in records[split:]]

        def update():
            # Benchmark only the incremental ingestion of the new day.
            proj.add_comments(iter(new_day))
            return proj.ci_graph()

        incremental_ci = benchmark.pedantic(update, rounds=1, iterations=1)

        with Timer() as t_full:
            full = project(proj.to_btm(), TimeWindow(0, 60))
        assert incremental_ci.edges.to_dict() == full.ci.edges.to_dict()
        report_sink(
            "incremental_projection",
            "Incremental daily update vs full re-projection (Oct 2016 "
            "corpus, (0s,60s))\n"
            f"corpus: {proj.n_comments:,} comments over {proj.n_pages:,} "
            f"pages; new day: {len(new_day):,} comments\n"
            f"full re-projection: {t_full.elapsed:.3f}s "
            "(incremental time in the pytest-benchmark table)\n"
            "result equality with full re-projection: True",
        )
