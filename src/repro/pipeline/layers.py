"""Multi-layer runs: one framework pass per action layer, plus fusion.

:class:`MultiLayerPipeline` is deliberately thin: each layer's BTM goes
through the *unchanged* :class:`~repro.pipeline.framework.CoordinationPipeline`
(same kernels, same plans, same thresholds), and the per-layer
thresholded CI graphs are fused with
:func:`repro.actions.fuse.fuse_layers` into one multi-layer score.  A net
that splits its coordination across behaviours shows up as one fused
component even when no single layer's component survives on its own.

Layers always execute in sorted-name order and the fusion is
order-independent by construction, so a multi-layer run is bit-identical
no matter how the caller spelled the layer list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.actions.base import ActionKey, resolve_layers
from repro.actions.fuse import FusedGraph, fuse_layers
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.io import IngestStats, _layer_btms, btms_from_ndjson
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import CoordinationPipeline
from repro.pipeline.results import PipelineResult
from repro.util.timers import StageTimings

__all__ = ["MultiLayerPipeline", "MultiLayerResult", "btms_from_records"]


def btms_from_records(
    records: Iterable, layers: "Sequence[str | ActionKey]"
) -> dict[str, BipartiteTemporalMultigraph]:
    """One BTM per layer from in-memory records (dicts or CommentRecords).

    The in-memory twin of :func:`repro.graph.io.btms_from_ndjson`: the
    same loop and checks, except that a malformed record raises.
    """
    rows = (
        record.to_pushshift_dict()
        if hasattr(record, "to_pushshift_dict")
        else record
        for record in records
    )
    return _layer_btms(rows, resolve_layers(list(layers)), decoded=True)


@dataclass
class MultiLayerResult:
    """Everything a multi-layer run produced.

    Attributes
    ----------
    config:
        The configuration (``config.layers`` names the covered layers).
    layers:
        ``{layer name: PipelineResult}`` — one full framework result per
        layer (each result's ``.layer`` is set), keys in sorted order.
    fused:
        The weighted union of the per-layer thresholded CI edges with
        per-layer provenance.
    fused_components:
        Connected components of the fused graph (author-name lists) of
        at least ``config.min_component_size`` members — the multi-layer
        candidate networks.
    ingest:
        Per-layer skip accounting when the corpus was loaded from
        ndjson; ``None`` for in-memory runs.
    """

    config: PipelineConfig
    layers: dict[str, PipelineResult]
    fused: FusedGraph
    fused_components: list[list[str]]
    ingest: IngestStats | None = None
    timings: StageTimings = field(default_factory=StageTimings)

    def layer_names(self) -> list[str]:
        """Covered layers, sorted."""
        return sorted(self.layers)

    def layer_result(self, layer: str) -> PipelineResult:
        """The single-layer result for *layer* (KeyError when absent)."""
        return self.layers[layer]

    def fused_user_ranking(self) -> list[tuple[str, float]]:
        """Authors by fused score (descending, names break ties)."""
        return self.fused.ranking()

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [f"multi-layer run: {self.config.describe()}"]
        for name in self.layer_names():
            res = self.layers[name]
            skips = (
                f", {self.ingest.skip_count(name)} skipped"
                if self.ingest is not None
                else ""
            )
            lines.append(
                f"  [{name}] {res.ci.n_authors} authors, "
                f"{res.ci_thresholded.n_edges} edges ≥ cutoff, "
                f"{len(res.components)} components{skips}"
            )
        lines.append(f"  {self.fused.summary()}")
        lines.append(
            f"  fused components: {len(self.fused_components)} "
            f"(sizes {[len(c) for c in self.fused_components[:8]]}"
            f"{'…' if len(self.fused_components) > 8 else ''})"
        )
        return "\n".join(lines)


class MultiLayerPipeline:
    """Runs the framework once per action layer and fuses the results.

    Parameters
    ----------
    config:
        Applied unchanged to every layer (window, cutoff, filter, …).
        ``config.layers`` is filled with the resolved layer names;
        ``config.layer_weights`` (when set) feeds the fusion.
    layers:
        Layer names / :class:`~repro.actions.base.ActionKey` instances to
        cover; defaults to ``config.layers`` or, failing that,
        ``("page",)``.

    Examples
    --------
    >>> from repro.datagen import RedditDatasetBuilder
    >>> ds = RedditDatasetBuilder.multilayer(seed=3, scale=0.05).build()
    >>> pipe = MultiLayerPipeline(layers=["page", "link"])
    >>> result = pipe.run_records(ds.records)
    >>> result.layer_names()
    ['link', 'page']
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        layers: "Sequence[str | ActionKey] | None" = None,
    ) -> None:
        config = config if config is not None else PipelineConfig()
        if layers is None:
            layers = config.layers or ("page",)
        self.keys = resolve_layers(list(layers))
        names = tuple(key.name for key in self.keys)
        if config.layers != names:
            config = replace(config, layers=names)
        self.config = config

    def run(
        self, btms: Mapping[str, BipartiteTemporalMultigraph]
    ) -> MultiLayerResult:
        """Run on pre-built per-layer BTMs (``{layer name: BTM}``)."""
        missing = [k.name for k in self.keys if k.name not in btms]
        if missing:
            raise ValueError(
                f"missing BTMs for layer(s): {missing} "
                f"(got: {sorted(btms)})"
            )
        return self._run(btms, ingest=None)

    def run_records(self, records: Iterable) -> MultiLayerResult:
        """Run on in-memory records (dicts or ``CommentRecord`` rows)."""
        return self._run(btms_from_records(records, self.keys), ingest=None)

    def run_ndjson(
        self,
        path: str | Path,
        errors: str = "raise",
        *,
        quarantine: str | Path | None = None,
    ) -> MultiLayerResult:
        """Load the corpus once and run every layer (lenient ingestion)."""
        stats = IngestStats()
        btms = btms_from_ndjson(
            path, self.keys, errors, quarantine=quarantine, stats=stats
        )
        return self._run(btms, ingest=stats)

    def _run(
        self,
        btms: Mapping[str, BipartiteTemporalMultigraph],
        ingest: IngestStats | None,
    ) -> MultiLayerResult:
        cfg = self.config
        timings = StageTimings()
        results: dict[str, PipelineResult] = {}
        # One executor (one warm pool, under ``parallel``) for every layer.
        pipeline = CoordinationPipeline(cfg)
        executor = pipeline.build_executor()
        try:
            for key in self.keys:  # resolve_layers sorted these by name
                with timings.stage(f"layer.{key.name}"):
                    result = pipeline.run(btms[key.name], executor=executor)
                result.layer = key.name
                results[key.name] = result
        finally:
            executor.close()
        with timings.stage("fuse"):
            fused = fuse_layers(
                {name: res.ci_thresholded for name, res in results.items()},
                weights=dict(cfg.layer_weights) or None,
            )
            fused_components = fused.components(
                min_size=cfg.min_component_size
            )
        return MultiLayerResult(
            config=cfg,
            layers=results,
            fused=fused,
            fused_components=fused_components,
            ingest=ingest,
            timings=timings,
        )
