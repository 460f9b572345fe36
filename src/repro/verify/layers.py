"""Multi-layer parity: every action layer against the serial oracle.

The multi-layer refactor must not be able to change any number the repo
already produces.  This harness makes that claim executable, in three
parts:

1. **Per-layer engine parity** — each action layer's extracted
   ``(author, action_value, time)`` triples are run through the full
   :func:`repro.verify.parity.run_parity` sweep (all projection and
   triangle engines vs. the reference oracle).  A layer is just a
   different event stream; every engine must agree on it bit-for-bit.
2. **Legacy byte-identity** — the ``page`` layer is also run through
   the *pre-refactor* code path (``link_id`` triples straight into
   :meth:`BipartiteTemporalMultigraph.from_comments` and the unchanged
   :class:`~repro.pipeline.framework.CoordinationPipeline`) and the two
   :class:`~repro.pipeline.results.PipelineResult`\\ s are structurally
   diffed with :func:`repro.verify.chaos.diff_results`.  This is the
   "page layer alone reproduces today's results exactly" guarantee.
3. **Fusion determinism** — the fused multi-layer score is recomputed
   under permuted layer orders, reversed dict insertion orders, and
   reordered weight mappings; every permutation must produce an
   ``==``-identical :class:`~repro.actions.fuse.FusedGraph` (same edge
   list, same provenance, same ranking).

Driven by ``repro-botnets verify --layers`` and the ``layers``-marked
tests.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.actions.base import ActionKey, available_layers, resolve_layers
from repro.actions.fuse import fuse_layers
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import CoordinationPipeline
from repro.pipeline.layers import MultiLayerPipeline
from repro.projection.window import TimeWindow
from repro.verify.chaos import diff_results
from repro.verify.parity import run_parity
from repro.verify.report import Report

__all__ = ["run_layer_parity"]


def _as_dicts(records: Iterable) -> list[Mapping]:
    return [
        rec.to_pushshift_dict() if hasattr(rec, "to_pushshift_dict") else rec
        for rec in records
    ]


def _check_legacy_identity(
    rows: Sequence[Mapping], config: PipelineConfig
) -> list[str]:
    """Diff the page layer against the pre-refactor single-layer path."""
    legacy_triples = [
        (rec["author"], rec["link_id"], int(rec["created_utc"]))
        for rec in rows
        if "link_id" in rec
    ]
    legacy_btm = BipartiteTemporalMultigraph.from_comments(legacy_triples)
    legacy = CoordinationPipeline(config).run(legacy_btm)
    layered = MultiLayerPipeline(config, layers=["page"]).run_records(rows)
    msgs = diff_results(legacy, layered.layers["page"])
    if legacy.layer is not None:
        msgs.append(
            f"legacy result unexpectedly tagged with layer {legacy.layer!r}"
        )
    if layered.layers["page"].layer != "page":
        msgs.append("layered page result not tagged layer='page'")
    return msgs


def _check_fusion_determinism(
    rows: Sequence[Mapping],
    keys: "Sequence[ActionKey]",
    config: PipelineConfig,
) -> list[str]:
    """Fuse under permuted orders; any inequality is a divergence."""
    names = [key.name for key in keys]
    baseline = MultiLayerPipeline(config, layers=list(names)).run_records(rows)
    msgs: list[str] = []

    permuted = MultiLayerPipeline(
        config, layers=list(reversed(names))
    ).run_records(rows)
    if permuted.fused != baseline.fused:
        msgs.append("fused graph differs under reversed layer-list order")
    if permuted.fused_components != baseline.fused_components:
        msgs.append("fused components differ under reversed layer-list order")

    cis = {name: baseline.layers[name].ci_thresholded for name in names}
    weights = dict(config.layer_weights) or None
    forward = fuse_layers(cis, weights=weights)
    backward = fuse_layers(
        {name: cis[name] for name in reversed(names)},
        weights=(
            {k: weights[k] for k in reversed(sorted(weights))}
            if weights
            else None
        ),
    )
    if forward != backward:
        msgs.append("fused graph differs under reversed dict insertion order")
    if forward != baseline.fused:
        msgs.append("re-fusing the per-layer CI graphs changed the result")
    if forward.ranking() != baseline.fused.ranking():
        msgs.append("fused ranking differs between equal fused graphs")
    return msgs


def run_layer_parity(
    records: Iterable,
    window: TimeWindow,
    min_edge_weight: int = 5,
    *,
    layers: "Sequence[str | ActionKey] | None" = None,
    bucket_width: int | None = None,
    n_ranks: int = 2,
    parallel_workers: int = 2,
    shrink: bool = True,
) -> Report:
    """Sweep every action layer through the full engine-parity harness.

    Parameters
    ----------
    records:
        The corpus as Pushshift-style dicts or
        :class:`~repro.datagen.records.CommentRecord` rows.
    window / min_edge_weight:
        Projection window and triangle cutoff, applied to every layer.
    layers:
        Layers to sweep (default: every registered layer).
    bucket_width / n_ranks / parallel_workers / shrink:
        Forwarded to :func:`repro.verify.parity.run_parity` per layer.

    Examples
    --------
    >>> rows = [
    ...     {"author": a, "link_id": "p", "created_utc": t,
    ...      "link": "https://x.example/1"}
    ...     for a, t in [("a", 0), ("b", 30), ("c", 45)]
    ... ]
    >>> report = run_layer_parity(
    ...     rows, TimeWindow(0, 60), 0, layers=["page", "link"])
    >>> report.ok
    True
    """
    keys = resolve_layers(
        list(layers) if layers is not None else available_layers()
    )
    rows = _as_dicts(records)
    config = PipelineConfig(
        window=window, min_triangle_weight=min_edge_weight
    )
    names = [key.name for key in keys]
    header = [
        f"layer parity run: {len(rows):,} records, window {window}, "
        f"cutoff {min_edge_weight}",
        f"  layers: {', '.join(names)}",
    ]
    per_layer: dict[str, Report] = {}
    sections: dict[str, list[str]] = {}
    for key in keys:
        triples: list[tuple] = []
        for rec in rows:
            triples.extend(key.triples(rec))
        sub = run_parity(
            triples,
            window,
            min_edge_weight=min_edge_weight,
            bucket_width=bucket_width,
            n_ranks=n_ranks,
            parallel_workers=parallel_workers,
            shrink=shrink,
        )
        per_layer[key.name] = sub
        sections[key.name] = [f"[{key.name}] {d}" for d in sub.divergences]
        header.append(
            f"  [{key.name}] {len(triples):,} events → "
            f"{sub.facts['n_edges']:,} CI edges, "
            f"{sub.facts['n_triangles']:,} triangles — engine parity "
            + ("ok" if sub.ok else f"FAILED ({len(sub.divergences)} below)")
        )
    sections["legacy"] = [
        f"legacy path (page layer != pre-refactor): {d}"
        for d in (
            _check_legacy_identity(rows, config) if "page" in per_layer else []
        )
    ]
    if not sections["legacy"]:
        header.append(
            "  legacy byte-identity ok — page layer == pre-refactor path"
        )
    sections["fusion"] = [
        f"fusion not deterministic: {d}"
        for d in _check_fusion_determinism(rows, keys, config)
    ]
    if not sections["fusion"]:
        header.append(
            "  fusion determinism ok — identical under layer/weight "
            "permutations"
        )
    return Report(
        "LAYER PARITY",
        "",
        header,
        {"layers": names, "per_layer": per_layer},
        sections,
    )
