"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.filters import AuthorFilter
from repro.projection.window import TimeWindow

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of one framework run.

    Attributes
    ----------
    window:
        The Step 1 delay window ``(δ1, δ2)``.
    min_triangle_weight:
        The Step 2 minimum-edge-weight cutoff (the paper uses 25 for
        component hunting and 10 for the figure-scale surveys).
    min_component_size:
        Smallest connected component reported from the thresholded CI
        graph.
    author_filter:
        Pre-projection exclusions (``AuthorFilter.none()`` disables —
        the filtering ablation).
    pair_batch:
        Memory budget of the projection kernel (candidate pairs
        materialized at once).
    wedge_batch:
        Memory budget of the triangle survey (wedges materialized at
        once).
    compute_hypergraph:
        Run Step 3 (disable when only the CI-graph view is needed).
    time_bucket_width:
        When set, Step 1 runs the paper's bucketed projection with this
        sub-window width instead of one direct pass.
    executor:
        Plan executor ``run`` builds when it is not handed one:
        ``"serial"`` (default) runs shards on the calling thread;
        ``"parallel"`` runs all three plans through one persistent
        :class:`~repro.exec.ParallelExecutor` worker pool (results are
        bit-identical either way).
    n_workers:
        Pool size for ``executor="parallel"``; 0 means ``os.cpu_count()``.
    layers:
        Action layers a multi-layer run covers
        (:class:`~repro.pipeline.layers.MultiLayerPipeline`); the empty
        default means the legacy single-axis (page) run and changes
        nothing about :class:`~repro.pipeline.framework.CoordinationPipeline`.
    layer_weights:
        Optional per-layer fusion multipliers as sorted ``(layer,
        weight)`` pairs; empty means weight 1.0 per layer.
    """

    window: TimeWindow = field(default_factory=lambda: TimeWindow(0, 60))
    min_triangle_weight: int = 10
    min_component_size: int = 3
    author_filter: AuthorFilter = field(default_factory=AuthorFilter)
    pair_batch: int = 4_000_000
    wedge_batch: int = 4_000_000
    compute_hypergraph: bool = True
    time_bucket_width: int | None = None
    executor: str = "serial"
    n_workers: int = 0
    layers: tuple[str, ...] = ()
    layer_weights: tuple[tuple[str, float], ...] = ()

    def describe(self) -> str:
        """One-line summary for reports."""
        bucket = (
            f", buckets={self.time_bucket_width}s"
            if self.time_bucket_width
            else ""
        )
        ex = (
            f", executor=parallel({self.n_workers or 'auto'})"
            if self.executor == "parallel"
            else ""
        )
        lay = f", layers=[{','.join(self.layers)}]" if self.layers else ""
        return (
            f"window={self.window}, cutoff={self.min_triangle_weight}"
            f"{bucket}{ex}{lay}, "
            f"filter={'on' if self.author_filter.exact_names else 'off'}"
        )
