"""The three-step framework, end to end (paper §1.3, §2).

``CoordinationPipeline.run(btm)`` executes:

1. **Filter + project** — strip helpful bots, run Algorithm 1 (directly or
   through the time-bucket workaround) to obtain ``C`` and ``P'``.
2. **Survey** — enumerate triangles of ``C`` with minimum edge weight
   above the cutoff; compute ``T`` per triangle; extract connected
   components of the pruned graph as candidate networks.
3. **Validate** — compute ``w_xyz`` and ``C(x, y, z)`` on the hypergraph
   incidence for every surviving triangle.

There is one run path.  Each step is a plan from :mod:`repro.exec.plans`
(thin orchestration over the shared :mod:`repro.kernels` layer) run on
one executor: by default the serial or parallel executor the config
names, built and closed by ``run``; or a caller-owned one passed as
``executor=`` — a shared :class:`~repro.exec.ParallelExecutor`, or a
:class:`~repro.exec.YgmExecutor` to run all three steps across YGM ranks
(the paper's cluster setting).  Executors differ only in *where* shards
run, so results are bit-identical by construction (see
``docs/architecture.md``); anything that depends on the backend — shard
sizing, retrying a failed run on a fresh world — lives behind the
executor, not here.

``run`` optionally checkpoints the expensive artifacts (CI graph,
thresholded edges, triangle survey) to a directory after each stage and
can ``resume_from=`` such a directory, re-running only the stages that
had not completed — so a mid-run worker death costs one stage, not the
run.
"""

from __future__ import annotations

import numpy as np

from repro.exec.executors import ParallelExecutor, SerialExecutor
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.csr import CSRGraph
from repro.hypergraph.incidence import UserPageIncidence
from repro.hypergraph.triplets import evaluate_triplets
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.config import PipelineConfig
from repro.pipeline.results import ComponentReport, PipelineResult
from repro.projection.buckets import project_bucketed
from repro.projection.ci_graph import CommonInteractionGraph
from repro.projection.project import project
from repro.tripoll.engine import survey_triangles_plan
from repro.tripoll.metrics import t_scores as compute_t_scores
from repro.util.timers import StageTimings

__all__ = ["CoordinationPipeline", "component_reports"]


class CoordinationPipeline:
    """Runs the paper's framework under a :class:`PipelineConfig`.

    Examples
    --------
    >>> from repro.datagen import RedditDatasetBuilder
    >>> from repro.projection import TimeWindow
    >>> ds = RedditDatasetBuilder.jan2020_like(seed=1, scale=0.1).build()
    >>> pipe = CoordinationPipeline(PipelineConfig(
    ...     window=TimeWindow(0, 60), min_triangle_weight=25))
    >>> result = pipe.run(ds.btm)
    >>> result.n_triangles > 0
    True
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config if config is not None else PipelineConfig()

    def build_executor(self) -> SerialExecutor | ParallelExecutor:
        """Build the executor the config names (the caller closes it)."""
        cfg = self.config
        if cfg.executor == "serial":
            return SerialExecutor()
        if cfg.executor == "parallel":
            return ParallelExecutor(cfg.n_workers or None)
        raise ValueError(
            f"unknown executor {cfg.executor!r} (expected 'serial' or "
            "'parallel')"
        )

    def run(
        self,
        btm: BipartiteTemporalMultigraph,
        *,
        executor=None,
        checkpoint_dir: str | None = None,
        resume_from: str | None = None,
    ) -> PipelineResult:
        """Execute Steps 1–3 on *btm* and return the full result bundle.

        Parameters
        ----------
        btm:
            The input bipartite temporal multigraph.
        executor:
            The plan executor all three steps run on.  ``None`` builds
            the one the config names (:meth:`build_executor`) and closes
            it afterwards; a passed executor is used as given and stays
            the caller's to close.
        checkpoint_dir:
            When set, persist each expensive stage artifact here as a
            checksummed snapshot generation as it completes (starting
            fresh: generations from an earlier run are dropped).
        resume_from:
            A directory previously populated by ``checkpoint_dir=``; its
            stages are loaded in order up to the first missing or
            damaged generation, and that stage and every later one are
            recomputed (and keep checkpointing into it).
            Checkpoints are executor-agnostic; one written under a
            different config raises
            :class:`~repro.pipeline.checkpoint.CheckpointMismatchError`.
        """
        cfg = self.config
        cp = None
        if resume_from is not None:
            cp = PipelineCheckpoint(resume_from)
            cp.resume(cfg)
        elif checkpoint_dir is not None:
            cp = PipelineCheckpoint(checkpoint_dir)
            cp.begin(cfg)
        timings = StageTimings()
        resumed: list[str] = []
        owned = executor is None
        if owned:
            executor = self.build_executor()
        retries_before = getattr(executor, "retries", 0)

        try:
            with timings.stage("step0.filter"):
                filtered, filter_report = cfg.author_filter.apply(btm)

            if cp is not None and cp.has("ci"):
                with timings.stage("step1.project[resumed]"):
                    ci = cp.load_ci()
                proj_stats = cp.load_stats()
                resumed.append("step1.project")
            else:
                with timings.stage("step1.project"):
                    if cfg.time_bucket_width is not None:
                        proj = project_bucketed(
                            filtered,
                            cfg.window,
                            bucket_width=cfg.time_bucket_width,
                            pair_batch=cfg.pair_batch,
                            executor=executor,
                        )
                    else:
                        proj = project(
                            filtered,
                            cfg.window,
                            pair_batch=cfg.pair_batch,
                            executor=executor,
                        )
                ci = proj.ci
                timings.merge(proj.timings)
                proj_stats = dict(proj.stats)
                if cp is not None:
                    cp.save_stats(proj_stats)
                    cp.save_ci(ci)

            if cp is not None and cp.has("ci_thr"):
                with timings.stage("step2.threshold[resumed]"):
                    ci_thr = cp.load_thresholded(ci)
                resumed.append("step2.threshold")
            else:
                with timings.stage("step2.threshold"):
                    ci_thr = ci.threshold(cfg.min_triangle_weight)
                if cp is not None:
                    cp.save_thresholded(ci_thr)

            if cp is not None and cp.has("triangles"):
                with timings.stage("step2.survey[resumed]"):
                    triangles, t_vals = cp.load_triangles()
                resumed.append("step2.survey")
            else:
                with timings.stage("step2.survey"):
                    # Survey the already-thresholded graph: thresholding once
                    # keeps the surveyed triangles and the reported
                    # ``ci_thresholded`` artifact structurally inseparable, and
                    # sorted_canonical makes the output element-for-element
                    # comparable across executors and shard counts.
                    triangles = survey_triangles_plan(
                        ci_thr.edges, executor, wedge_batch=cfg.wedge_batch
                    ).sorted_canonical()
                    t_vals = compute_t_scores(triangles, ci.page_counts)
                if cp is not None:
                    cp.save_triangles(triangles, t_vals)

            with timings.stage("step2.components"):
                components = component_reports(ci_thr, cfg.min_component_size)

            triplet_metrics = None
            if cfg.compute_hypergraph:
                with timings.stage("step3.hypergraph"):
                    inc = UserPageIncidence.from_btm(filtered)
                    triplet_metrics = evaluate_triplets(
                        inc, triangles, executor=executor
                    )
        finally:
            if owned:
                executor.close()

        stage_retries = getattr(executor, "retries", 0) - retries_before
        stats = dict(proj_stats)
        stats.update(
            {
                "triangles": triangles.n_triangles,
                "thresholded_edges": ci_thr.n_edges,
                "components": len(components),
            }
        )
        if stage_retries:
            stats["stage_retries"] = stage_retries
        return PipelineResult(
            config=cfg,
            filter_report=filter_report,
            ci=ci,
            ci_thresholded=ci_thr,
            triangles=triangles,
            t_scores=t_vals,
            triplet_metrics=triplet_metrics,
            components=components,
            stats=stats,
            timings=timings,
            resumed_stages=tuple(resumed),
            stage_retries=stage_retries,
        )


def component_reports(
    ci_thr: CommonInteractionGraph, min_component_size: int
) -> list[ComponentReport]:
    """Describe every component of a thresholded CI graph.

    Shared by the batch pipeline and the online service's
    :meth:`repro.serve.DetectionEngine.snapshot`, so both produce
    identical :class:`~repro.pipeline.results.ComponentReport` rows for
    the same graph.
    """
    comps = ci_thr.components(min_size=min_component_size)
    if not comps:
        return []
    csr = ci_thr.to_csr()
    # One pass over the edges, labelled by their component's report index
    # (len(comps): under the size floor, sorted last).  Every report has
    # an edge, so run i of the sorted labels is report i.
    report_of = np.full(csr.n_vertices, len(comps), dtype=np.int64)
    for i, members in enumerate(comps):
        report_of[members] = i
    edges = csr.to_edgelist()
    order = np.argsort(report_of[edges.src], kind="stable")
    label, weight = report_of[edges.src[order]], edges.weight[order]
    n_edges = np.bincount(label)
    starts = np.flatnonzero(np.diff(label, prepend=-1))
    weight_min = np.minimum.reduceat(weight, starts)
    weight_max = np.maximum.reduceat(weight, starts)
    return [
        ComponentReport(
            members=tuple(members),
            member_names=tuple(ci_thr.author_name(v) for v in members),
            n_edges=int(n_edges[i]),
            weight_min=int(weight_min[i]),
            weight_max=int(weight_max[i]),
            density=2.0 * int(n_edges[i]) / (len(members) * (len(members) - 1)),
            max_clique_lower_bound=_greedy_clique(csr, members),
        )
        for i, members in enumerate(comps)
    ]


def _greedy_clique(csr: CSRGraph, members: list[int]) -> int:
    """Greedy clique lower bound inside a component (degree-descending seed)."""
    member_set = set(members)
    adj = {
        v: {int(n) for n in csr.neighbors(v) if int(n) in member_set}
        for v in members
    }
    best = 0
    order = sorted(members, key=lambda v: -len(adj[v]))
    for seed in order[:16]:  # a few seeds are enough for a bound
        clique = {seed}
        for cand in sorted(adj[seed], key=lambda v: -len(adj[v])):
            if clique <= adj[cand]:
                clique.add(cand)
        best = max(best, len(clique))
        if best >= len(members):
            break
    return best
