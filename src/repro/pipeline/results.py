"""Result objects carrying every intermediate artifact of a pipeline run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.filters import FilterReport
from repro.hypergraph.triplets import TripletMetrics
from repro.pipeline.config import PipelineConfig
from repro.projection.ci_graph import CommonInteractionGraph
from repro.tripoll.survey import TriangleSet
from repro.util.timers import StageTimings

__all__ = ["ComponentReport", "PipelineResult"]


@dataclass(frozen=True)
class ComponentReport:
    """One connected component of the thresholded CI graph (a candidate net).

    Attributes
    ----------
    members:
        Author ids, sorted.
    member_names:
        Platform names when an interner is available.
    n_edges:
        Edges inside the component (at the applied threshold).
    weight_min, weight_max:
        Edge-weight range inside the component (the paper reports e.g.
        "edge weights … between 33 and 25" for the GPT-2 net).
    density:
        ``2·n_edges / (n·(n−1))`` — distinguishes sparse generation nets
        from dense share-reshare cliques (paper §3.1.2).
    max_clique_lower_bound:
        Size of a greedily grown clique (a lower bound; the restream
        component contains an 8-clique in the paper).
    """

    members: tuple[int, ...]
    member_names: tuple[str, ...]
    n_edges: int
    weight_min: int
    weight_max: int
    density: float
    max_clique_lower_bound: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class PipelineResult:
    """Everything a framework run produced.

    Attributes
    ----------
    config:
        The configuration that produced this result.
    filter_report:
        What the author pre-filter removed.
    ci:
        The full (unthresholded) common interaction graph with ``P'``.
    ci_thresholded:
        The min-weight-pruned view used for Steps 2–3.
    triangles:
        Step 2 survey output (all triangles above the cutoff, with CI
        edge weights).
    t_scores:
        ``T(x, y, z)`` per surveyed triangle (eq. 7).
    triplet_metrics:
        Step 3 output (``w_xyz``, ``C``) aligned to ``triangles``; absent
        when ``compute_hypergraph=False``.
    components:
        Candidate networks (components of the thresholded CI graph).
    timings:
        Wall-clock per stage.
    resumed_stages:
        Stage artifacts loaded from a checkpoint instead of recomputed
        (empty for an uninterrupted run).
    stage_retries:
        Plan runs that failed typed and were retried on a fresh world by
        the run's executor (0 for a clean run; only a
        :class:`~repro.exec.YgmExecutor` built with a ``world_factory``
        retries).
    layer:
        Action layer this result covers when produced by a multi-layer
        run (:class:`~repro.pipeline.layers.MultiLayerPipeline`);
        ``None`` for a legacy single-axis run — legacy results are
        byte-identical to before the field existed.
    """

    config: PipelineConfig
    filter_report: FilterReport
    ci: CommonInteractionGraph
    ci_thresholded: CommonInteractionGraph
    triangles: TriangleSet
    t_scores: np.ndarray
    triplet_metrics: TripletMetrics | None
    components: list[ComponentReport]
    stats: dict[str, int] = field(default_factory=dict)
    timings: StageTimings = field(default_factory=StageTimings)
    resumed_stages: tuple[str, ...] = ()
    stage_retries: int = 0
    layer: str | None = None

    # -- conveniences -----------------------------------------------------------
    @property
    def n_triangles(self) -> int:
        """Triangles surviving the Step 2 cutoff."""
        return self.triangles.n_triangles

    def component_name_lists(self) -> list[list[str]]:
        """Component member names (for ground-truth scoring)."""
        return [list(c.member_names) for c in self.components]

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [
            f"pipeline run: {self.config.describe()}",
            f"  {self.filter_report}",
            f"  CI graph: {self.ci.n_authors} authors, {self.ci.n_edges} edges "
            f"(max w' = {self.ci.max_weight()})",
            f"  thresholded: {self.ci_thresholded.n_edges} edges, "
            f"{len(self.components)} components "
            f"(sizes {[c.size for c in self.components[:8]]}"
            f"{'…' if len(self.components) > 8 else ''})",
            f"  triangles: {self.n_triangles}",
        ]
        if self.resumed_stages:
            lines.append(
                f"  resumed from checkpoint: {', '.join(self.resumed_stages)}"
            )
        if self.stage_retries:
            lines.append(f"  stage retries: {self.stage_retries}")
        if self.triplet_metrics is not None and self.n_triangles:
            lines.append(
                "  hypergraph: w_xyz in "
                f"[{int(self.triplet_metrics.w_xyz.min())}, "
                f"{int(self.triplet_metrics.w_xyz.max())}], "
                f"C in [{self.triplet_metrics.c_scores.min():.3f}, "
                f"{self.triplet_metrics.c_scores.max():.3f}]"
            )
        return "\n".join(lines)
