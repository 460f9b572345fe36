"""Triangle surveying with per-edge metadata (thin kernel orchestration).

The degree-ordered edge-iterator itself — forward adjacency, wedge
pricing, and the closing-edge hash join — lives in
:mod:`repro.kernels.triangles`; this module owns what the kernels do
not: canonicalization into :class:`TriangleSet`, the huge-id compaction
guard (when ``n²`` would overflow the int64 join keys, endpoints are
relabelled onto a dense id space via :func:`_compact_id_space` instead
of letting the key wrap), the ``min_edge_weight`` pre-threshold, and
TriPoll's streaming survey API (``survey_callback`` / ``collect``).

Memory is bounded by ``wedge_batch``: :func:`repro.kernels.triangle_enum`
yields raw triangle batches whose generating wedge count stays under the
budget.  The pipeline's survey (:mod:`repro.tripoll.engine`) runs the
same kernels through :data:`repro.exec.plans.SURVEY_PLAN` on any
executor, after the same :func:`_oriented_input` prologue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.ordering import degree_order
from repro.kernels import triangle_enum, triangle_enum_reference
from repro.util.keys import compress_ids, strided_key_fits

__all__ = ["TriangleSet", "survey_triangles", "triangles_brute"]


@dataclass
class TriangleSet:
    """Triangles in canonical form (``a < b < c`` by vertex id).

    Attributes
    ----------
    a, b, c:
        Vertex ids per triangle, sorted ascending within each triangle.
    w_ab, w_ac, w_bc:
        The three edge weights, aligned to the id ordering.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w_ab: np.ndarray
    w_ac: np.ndarray
    w_bc: np.ndarray

    def __post_init__(self) -> None:
        n = self.a.shape[0]
        for name in ("b", "c", "w_ab", "w_ac", "w_bc"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"TriangleSet field {name} length mismatch")

    @classmethod
    def empty(cls) -> "TriangleSet":
        """A set with no triangles."""
        e = np.empty(0, dtype=np.int64)
        return cls(e, e.copy(), e.copy(), e.copy(), e.copy(), e.copy())

    @classmethod
    def from_raw(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        w_xy: np.ndarray,
        w_xz: np.ndarray,
        w_yz: np.ndarray,
    ) -> "TriangleSet":
        """Canonicalize arbitrary-order triangles (sort ids, realign weights).

        Weight ``w_xy`` must connect ``x``–``y`` and so on; after sorting
        the ids, weights are permuted to match the ``(ab, ac, bc)`` slots.
        """
        n = x.shape[0]
        ids = np.stack([x, y, z], axis=1).astype(np.int64, copy=False)
        # The weight opposite each vertex: w_yz is opposite x, etc.
        opp = np.stack([w_yz, w_xz, w_xy], axis=1)
        order = np.argsort(ids, axis=1, kind="stable")
        rows = np.arange(n)[:, None]
        sorted_ids = ids[rows, order]
        sorted_opp = opp[rows, order]
        # After sorting: columns are (a, b, c); opposite weights follow, so
        # w_bc is opposite a, w_ac opposite b, w_ab opposite c.
        return cls(
            a=sorted_ids[:, 0],
            b=sorted_ids[:, 1],
            c=sorted_ids[:, 2],
            w_ab=sorted_opp[:, 2],
            w_ac=sorted_opp[:, 1],
            w_bc=sorted_opp[:, 0],
        )

    # -- basic accounting ---------------------------------------------------------
    @property
    def n_triangles(self) -> int:
        """Number of triangles in the set."""
        return int(self.a.shape[0])

    def min_weights(self) -> np.ndarray:
        """Minimum edge weight per triangle (paper §2.3's ranking metric)."""
        return np.minimum(np.minimum(self.w_ab, self.w_ac), self.w_bc)

    def max_weights(self) -> np.ndarray:
        """Maximum edge weight per triangle."""
        return np.maximum(np.maximum(self.w_ab, self.w_ac), self.w_bc)

    # -- filtering / iteration -------------------------------------------------------
    def filter_min_weight(self, cutoff: int) -> "TriangleSet":
        """Keep triangles whose minimum edge weight is ``>= cutoff``."""
        mask = self.min_weights() >= cutoff
        return self.filter_mask(mask)

    def filter_mask(self, mask: np.ndarray) -> "TriangleSet":
        """Keep triangles selected by a boolean mask."""
        return TriangleSet(
            self.a[mask],
            self.b[mask],
            self.c[mask],
            self.w_ab[mask],
            self.w_ac[mask],
            self.w_bc[mask],
        )

    def vertices(self) -> np.ndarray:
        """Sorted distinct vertex ids appearing in any triangle."""
        if self.n_triangles == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate((self.a, self.b, self.c)))

    def as_tuples(self) -> set[tuple[int, int, int]]:
        """Canonical ``(a, b, c)`` id triples as a Python set (tests)."""
        return {
            (int(x), int(y), int(z))
            for x, y, z in zip(self.a, self.b, self.c)
        }

    def __iter__(self) -> Iterator[tuple[int, int, int, int, int, int]]:
        for i in range(self.n_triangles):
            yield (
                int(self.a[i]),
                int(self.b[i]),
                int(self.c[i]),
                self.w_ab[i].item(),
                self.w_ac[i].item(),
                self.w_bc[i].item(),
            )

    def sorted_canonical(self) -> "TriangleSet":
        """Sort triangles by ``(a, b, c)`` for order-independent comparison."""
        if self.n_triangles == 0:
            return TriangleSet.empty()
        order = np.lexsort((self.c, self.b, self.a))
        return TriangleSet(
            self.a[order],
            self.b[order],
            self.c[order],
            self.w_ab[order],
            self.w_ac[order],
            self.w_bc[order],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TriangleSet(n_triangles={self.n_triangles})"


def survey_triangles(
    edges: EdgeList,
    min_edge_weight: int = 0,
    wedge_batch: int = 4_000_000,
    survey_callback: Callable[[TriangleSet], None] | None = None,
    collect: bool = True,
) -> TriangleSet:
    """Enumerate all triangles of an undirected weighted graph, with weights.

    Parameters
    ----------
    edges:
        The graph (duplicates are accumulated).  For the paper's Step 2
        this is the common-interaction graph's edge list.
    min_edge_weight:
        Pre-threshold: edges lighter than this are removed *before*
        enumeration, so every reported triangle has min weight >= cutoff.
        This is TriPoll's edge-filtered survey mode and the knob the paper
        turns ("a minimum triangle weight cutoff of 25").
    wedge_batch:
        Peak number of wedges materialized at once.
    survey_callback:
        Optional metadata survey: invoked once per internal batch with the
        batch's :class:`TriangleSet` (TriPoll's streaming survey API); the
        full set is still returned unless ``collect=False``.
    collect:
        When ``False``, batches are *not* retained after the callback and
        an empty set is returned — peak memory stays at one wedge batch
        regardless of the triangle count (the TriPoll survey mode; see
        :mod:`repro.tripoll.aggregate`).

    Examples
    --------
    >>> el = EdgeList([0, 0, 1, 2], [1, 2, 2, 3], [5, 4, 3, 9])
    >>> ts = survey_triangles(el)
    >>> ts.as_tuples()
    {(0, 1, 2)}
    >>> ts.min_weights().tolist()
    [3]
    """
    oriented = _oriented_input(edges, min_edge_weight)
    if oriented is None:
        return TriangleSet.empty()
    acc, id_values, rank, n = oriented

    parts: list[TriangleSet] = []
    for raw in triangle_enum(
        acc.src, acc.dst, acc.weight, rank, n, wedge_batch=wedge_batch
    ):
        batch = TriangleSet.from_raw(*raw)
        if survey_callback is not None:
            survey_callback(batch)
        if collect:
            parts.append(batch)

    if not parts:
        return TriangleSet.empty()
    out = TriangleSet(
        a=np.concatenate([p.a for p in parts]),
        b=np.concatenate([p.b for p in parts]),
        c=np.concatenate([p.c for p in parts]),
        w_ab=np.concatenate([p.w_ab for p in parts]),
        w_ac=np.concatenate([p.w_ac for p in parts]),
        w_bc=np.concatenate([p.w_bc for p in parts]),
    )
    return _restore_id_space(out, id_values)


def _oriented_input(
    edges: EdgeList, min_edge_weight: int
) -> tuple[EdgeList, np.ndarray | None, np.ndarray, int] | None:
    """The prologue every survey shares: accumulate → threshold → compact
    (:func:`_compact_id_space`) → degree-order.  Returns ``(acc,
    id_values, rank, n)``, or ``None`` when no edge survives."""
    acc = edges.accumulate()
    if min_edge_weight > 0:
        acc = acc.threshold(min_edge_weight)
    if acc.n_edges == 0:
        return None
    acc, id_values = _compact_id_space(acc)
    n = acc.max_vertex + 1
    return acc, id_values, degree_order(acc, n), n


def _compact_id_space(acc: EdgeList) -> tuple[EdgeList, np.ndarray | None]:
    """Relabel endpoints when ``max_vertex² `` would overflow the int64 keys.

    The closing-edge join encodes oriented edges as ``tail * n + head``;
    for sparse graphs with huge vertex ids (raw hashes, platform ids) that
    product wraps.  Relabelling onto the dense id space of the endpoints
    actually present keeps ``n`` bounded by ``2 * n_edges``, where the
    product always fits.  Returns the (possibly relabelled) edge list and
    the value table to restore original ids, or ``None`` when no
    relabelling was needed.
    """
    n = acc.max_vertex + 1
    if strided_key_fits(n, n):
        return acc, None
    id_values, src_c, dst_c = compress_ids(acc.src, acc.dst)
    compact = EdgeList.__new__(EdgeList)
    compact.src, compact.dst, compact.weight = src_c, dst_c, acc.weight
    return compact, id_values


def _restore_id_space(
    triangles: TriangleSet, id_values: np.ndarray | None
) -> TriangleSet:
    """Map compacted vertex ids back to the originals (order-preserving,
    so the canonical ``a < b < c`` form is unchanged)."""
    if id_values is None:
        return triangles
    return TriangleSet(
        a=id_values[triangles.a],
        b=id_values[triangles.b],
        c=id_values[triangles.c],
        w_ab=triangles.w_ab,
        w_ac=triangles.w_ac,
        w_bc=triangles.w_bc,
    )


def triangles_brute(edges: EdgeList) -> TriangleSet:
    """O(n³) reference enumeration via the kernel's reference twin (tests)."""
    acc = edges.accumulate()
    x, y, z, w_xy, w_xz, w_yz = triangle_enum_reference(
        acc.src, acc.dst, acc.weight
    )
    # The reference twin already emits canonical a < b < c order.
    return TriangleSet(a=x, b=y, c=z, w_ab=w_xy, w_ac=w_xz, w_bc=w_yz)
