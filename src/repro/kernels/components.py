"""The connected-components kernel: one labelling for batch, fusion and serve.

:func:`component_members` labels an edge list over ids ``0..n-1`` with
scipy's csgraph and fixes the canonical order once: members ascending,
components by ``(-size, members)``.  :class:`UnionFind` is its reference
twin; the streaming ``ComponentAggregator`` folds with it directly.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["UnionFind", "component_members", "component_members_reference"]


class UnionFind:
    """Array-based union-find with union by size and path halving."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        """Representative of *x*'s set (with path halving)."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of *a* and *b*; return the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def connected(self, a: int, b: int) -> bool:
        """Whether *a* and *b* share a component."""
        return self.find(a) == self.find(b)

    def component_labels(self) -> np.ndarray:
        """Root id of every element (fully path-compressed)."""
        # Iterate until fixpoint; each pass halves remaining path lengths.
        parent = self.parent
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent.copy()
            parent[:] = grand


def component_members(
    src: np.ndarray, dst: np.ndarray, n: int, min_size: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Components with at least *min_size* vertices, in canonical order.

    Only vertices touching an edge count (a self-loop touches one).
    Returns ``(members, bounds)``: component ``k`` is
    ``members[bounds[k]:bounds[k + 1]]``, its ids ascending; components
    run largest first, ties broken by members.

    >>> members, bounds = component_members(np.array([5, 0, 1]), np.array([4, 1, 2]), 6)
    >>> members.tolist(), bounds.tolist()
    ([0, 1, 2, 4, 5], [0, 3, 5])
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    adjacency = csr_matrix((np.ones(src.shape[0]), (src, dst)), shape=(n, n))
    labels = connected_components(adjacency, directed=False)[1]
    touched = np.zeros(n, dtype=bool)
    touched[src] = touched[dst] = True
    verts = np.flatnonzero(touched)
    comp = labels[verts]
    sizes = np.bincount(comp)
    first = np.full(sizes.shape[0], n, dtype=np.int64)
    np.minimum.at(first, comp, verts)
    keep = sizes[comp] >= min_size
    verts, comp = verts[keep], comp[keep]
    # Components are disjoint, so (-size, first member) is (-size, members).
    order = np.lexsort((verts, first[comp], -sizes[comp]))
    verts, comp = verts[order], comp[order]
    starts = np.flatnonzero(np.diff(comp, prepend=-1))
    return verts, np.r_[starts, verts.shape[0]]


def component_members_reference(
    src: np.ndarray, dst: np.ndarray, n: int, min_size: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Twin of :func:`component_members` on :class:`UnionFind`."""
    uf = UnionFind(n)
    src, dst = np.asarray(src).tolist(), np.asarray(dst).tolist()
    for s, d in zip(src, dst):
        uf.union(s, d)
    by_root: dict[int, list[int]] = {}
    for v in sorted(set(src) | set(dst)):
        by_root.setdefault(uf.find(v), []).append(v)
    comps = [m for m in by_root.values() if len(m) >= min_size]
    comps.sort(key=lambda c: (-len(c), c))
    members = np.array([v for comp in comps for v in comp], dtype=np.int64)
    bounds = np.r_[0, np.cumsum([len(comp) for comp in comps])].astype(np.int64)
    return members, bounds
