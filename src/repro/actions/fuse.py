"""Fusing per-layer CI graphs into one multi-layer coordination score.

Running the pipeline once per action layer yields one thresholded common
interaction graph per behaviour (co-page, co-link, co-reply, co-hashtag,
co-text).  A campaign that splits its coordination across behaviours —
sharing URLs here, brigading a hashtag there — leaves a weak trace on
every single layer but a strong one on their union.  The fusion rule is
the weighted union of the per-layer CI edges:

    ``fused(a, b) = Σ_layer  weight[layer] · w'_layer(a, b)``

with **per-layer provenance** kept on every fused edge, so an analyst
can always see *which behaviours* produced a fused score.

Edges are joined by author *name* (per-layer graphs intern their own id
spaces; names are the shared key).  Everything is deterministic by
construction: layers are folded in sorted-name order, edges and rankings
sort lexicographically, and ties break on names — the same inputs give a
bit-identical :class:`FusedGraph` regardless of dict iteration order or
the order the caller listed the layers in (enforced by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.graph.components import named_components
from repro.projection.ci_graph import CommonInteractionGraph

__all__ = ["FusedEdge", "FusedGraph", "fuse_layers", "fuse_edge_maps"]


@dataclass(frozen=True)
class FusedEdge:
    """One author pair's fused coordination evidence.

    Attributes
    ----------
    a, b:
        Author names, ``a < b`` lexicographically.
    score:
        The weighted sum of per-layer ``w'`` values.
    per_layer:
        ``((layer, w'), …)`` provenance, sorted by layer name; only
        layers where the pair actually has an edge appear.
    """

    a: str
    b: str
    score: float
    per_layer: tuple[tuple[str, int], ...]

    @property
    def n_layers(self) -> int:
        """How many behaviours contribute to this pair."""
        return len(self.per_layer)


@dataclass
class FusedGraph:
    """The weighted union of per-layer CI edges (see module docs).

    Attributes
    ----------
    weights:
        ``((layer, weight), …)`` actually applied, sorted by layer.
    edges:
        All fused edges, sorted by ``(a, b)``.
    """

    weights: tuple[tuple[str, float], ...]
    edges: list[FusedEdge]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def layer_names(self) -> list[str]:
        """The fused layers, sorted."""
        return [name for name, _w in self.weights]

    def top_edges(self, k: int) -> list[FusedEdge]:
        """The *k* strongest fused edges (score desc, then names asc)."""
        return sorted(self.edges, key=lambda e: (-e.score, e.a, e.b))[: max(k, 0)]

    def user_scores(self) -> dict[str, float]:
        """Per-author fused score: the sum of incident fused edges.

        Folded in sorted-edge order, so float accumulation is
        bit-reproducible.
        """
        scores: dict[str, float] = {}
        for edge in self.edges:
            scores[edge.a] = scores.get(edge.a, 0.0) + edge.score
            scores[edge.b] = scores.get(edge.b, 0.0) + edge.score
        return scores

    def ranking(self) -> list[tuple[str, float]]:
        """Authors by fused score, descending; ties break on the name."""
        return sorted(
            self.user_scores().items(), key=lambda kv: (-kv[1], kv[0])
        )

    def components(self, min_size: int = 2) -> list[list[str]]:
        """Connected components of the fused union graph.

        Each component is a lexicographically sorted member list; the
        list of components sorts by size descending, then members — the
        candidate multi-layer coordination networks.
        """
        edges = self.edges
        return named_components([e.a for e in edges], [e.b for e in edges], min_size)

    def summary(self) -> str:
        """One line for reports."""
        layers = ", ".join(
            f"{name}×{weight:g}" for name, weight in self.weights
        )
        multi = sum(1 for e in self.edges if e.n_layers > 1)
        return (
            f"fused graph: {self.n_edges} edges over [{layers}] "
            f"({multi} multi-behaviour)"
        )


def _edge_names(
    ci: CommonInteractionGraph,
) -> Iterable[tuple[str, str, int]]:
    """A CI graph's edges as ``(name_lo, name_hi, w')`` with names sorted."""
    interner = ci.user_names
    src = ci.edges.src.tolist()
    dst = ci.edges.dst.tolist()
    weight = ci.edges.weight.tolist()
    for u, v, w in zip(src, dst, weight):
        a = str(interner.key_of(u)) if interner is not None else str(u)
        b = str(interner.key_of(v)) if interner is not None else str(v)
        if b < a:
            a, b = b, a
        yield a, b, int(w)


def fuse_layers(
    layer_cis: Mapping[str, CommonInteractionGraph],
    weights: Mapping[str, float] | None = None,
) -> FusedGraph:
    """Fuse per-layer (thresholded) CI graphs into one :class:`FusedGraph`.

    Parameters
    ----------
    layer_cis:
        ``{layer name: CI graph}`` — pass the *thresholded* graphs so the
        fusion only unions evidence that already cleared each layer's
        cutoff.  Iteration order of the mapping is irrelevant.
    weights:
        Optional per-layer multipliers (default 1.0 each).  Unknown keys
        are rejected so a typo cannot silently zero a layer.

    Examples
    --------
    >>> from repro.graph.edgelist import EdgeList
    >>> from repro.projection.window import TimeWindow
    >>> from repro.util.ids import Interner
    >>> import numpy as np
    >>> names = Interner(["ann", "bob"])
    >>> ci = CommonInteractionGraph(
    ...     edges=EdgeList(np.array([0]), np.array([1]), np.array([3])),
    ...     page_counts=np.array([1, 1]), window=TimeWindow(0, 60),
    ...     user_names=names)
    >>> fused = fuse_layers({"link": ci, "hashtag": ci})
    >>> fused.edges[0].score, fused.edges[0].per_layer
    (6.0, (('hashtag', 3), ('link', 3)))
    """
    return fuse_edge_maps(
        {
            name: {(a, b): w for a, b, w in _edge_names(ci)}
            for name, ci in layer_cis.items()
        },
        weights=weights,
    )


def fuse_edge_maps(
    layer_edges: Mapping[str, Mapping[tuple[str, str], int]],
    weights: Mapping[str, float] | None = None,
) -> FusedGraph:
    """Fuse per-layer ``{(name_a, name_b): w'}`` edge maps.

    The name-keyed twin of :func:`fuse_layers`, shared with the online
    service (whose per-layer engines expose exactly this edge form).
    Pair keys may arrive in either orientation; they are canonicalized
    to ``a < b``.
    """
    weights = dict(weights) if weights is not None else {}
    unknown = sorted(set(weights) - set(layer_edges))
    if unknown:
        raise ValueError(
            f"fusion weights name unknown layer(s): {unknown} "
            f"(layers: {sorted(layer_edges)})"
        )
    applied = tuple(
        (name, float(weights.get(name, 1.0))) for name in sorted(layer_edges)
    )
    acc: dict[tuple[str, str], tuple[float, list[tuple[str, int]]]] = {}
    for name, layer_weight in applied:
        edge_map = layer_edges[name]
        for (a, b) in sorted(edge_map):
            w = int(edge_map[(a, b)])
            key = (a, b) if a <= b else (b, a)
            score, provenance = acc.get(key, (0.0, []))
            acc[key] = (
                score + layer_weight * w,
                provenance + [(name, w)],
            )
    edges = [
        FusedEdge(a=a, b=b, score=score, per_layer=tuple(provenance))
        for (a, b), (score, provenance) in sorted(acc.items())
    ]
    return FusedGraph(weights=applied, edges=edges)
