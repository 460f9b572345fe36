"""Parameter sweeps — the grid studies behind the paper's evaluation.

The thesis evaluates one window×cutoff point at a time; a practitioner
needs the whole grid (and, with ground truth, the detection quality at
each point).  :func:`run_sweep` runs the pipeline over a window × cutoff
grid efficiently — one projection *per window*, re-thresholded per cutoff
— and :func:`detection_curve` adds precision/recall when labels exist.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.datagen.ground_truth import GroundTruth, score_detection
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import CoordinationPipeline
from repro.pipeline.results import PipelineResult
from repro.projection.window import TimeWindow

__all__ = ["SweepPoint", "run_sweep", "detection_curve"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's outcome.

    Attributes
    ----------
    window, cutoff:
        The parameters.
    n_ci_edges, n_thresholded_edges, n_triangles, n_components:
        Pipeline size outcomes.
    mean_precision, mean_recall:
        Ground-truth detection quality averaged over botnets
        (``nan`` without ground truth).
    """

    window: TimeWindow
    cutoff: int
    n_ci_edges: int
    n_thresholded_edges: int
    n_triangles: int
    n_components: int
    mean_precision: float
    mean_recall: float

    def row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "window": str(self.window),
            "cutoff": self.cutoff,
            "CI edges": self.n_ci_edges,
            "edges>=cutoff": self.n_thresholded_edges,
            "triangles": self.n_triangles,
            "components": self.n_components,
            "mean P": round(self.mean_precision, 3),
            "mean R": round(self.mean_recall, 3),
        }


def run_sweep(
    btm: BipartiteTemporalMultigraph,
    windows: list[TimeWindow],
    cutoffs: list[int],
    truth: GroundTruth | None = None,
    base_config: PipelineConfig | None = None,
) -> list[SweepPoint]:
    """Run the pipeline over a window × cutoff grid.

    One projection is computed per window (the expensive stage); each
    cutoff re-runs only the cheap Steps 2+ on the shared CI graph.

    Examples
    --------
    >>> from repro.datagen import RedditDatasetBuilder
    >>> ds = RedditDatasetBuilder.jan2020_like(seed=4, scale=0.1).build()
    >>> points = run_sweep(
    ...     ds.btm, [TimeWindow(0, 60)], [10, 25], truth=ds.truth)
    >>> [p.cutoff for p in points]
    [10, 25]
    """
    if not windows or not cutoffs:
        raise ValueError("windows and cutoffs must be non-empty")
    base = base_config if base_config is not None else PipelineConfig()
    points: list[SweepPoint] = []
    for window in windows:
        for cutoff in sorted(cutoffs):
            config = replace(
                base,
                window=window,
                min_triangle_weight=cutoff,
                compute_hypergraph=False,
            )
            result = CoordinationPipeline(config).run(btm)
            points.append(_to_point(result, truth))
    return points


def _to_point(result: PipelineResult, truth: GroundTruth | None) -> SweepPoint:
    mean_p = float("nan")
    mean_r = float("nan")
    if truth is not None and truth.botnets:
        scores = score_detection(truth, result.component_name_lists())
        mean_p = sum(s.precision for s in scores.values()) / len(scores)
        mean_r = sum(s.recall for s in scores.values()) / len(scores)
    return SweepPoint(
        window=result.config.window,
        cutoff=result.config.min_triangle_weight,
        n_ci_edges=result.ci.n_edges,
        n_thresholded_edges=result.ci_thresholded.n_edges,
        n_triangles=result.n_triangles,
        n_components=len(result.components),
        mean_precision=mean_p,
        mean_recall=mean_r,
    )


def detection_curve(
    btm: BipartiteTemporalMultigraph,
    truth: GroundTruth,
    window: TimeWindow,
    cutoffs: list[int],
    base_config: PipelineConfig | None = None,
) -> list[SweepPoint]:
    """The precision/recall-vs-cutoff curve for one window.

    A convenience wrapper over :func:`run_sweep` for the single-window,
    many-cutoffs study (the Step 2 threshold ablation).
    """
    return run_sweep(
        btm, [window], cutoffs, truth=truth, base_config=base_config
    )
