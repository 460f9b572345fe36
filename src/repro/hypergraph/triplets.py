"""Triplet hyperedge weights and coordination scores (eqs. 2–4).

Thin orchestration over the kernel layer: ``hyperedge_weight`` wraps
:func:`repro.kernels.intersect3_sorted` for one triplet;
``evaluate_triplets`` runs :data:`repro.exec.plans.VALIDATION_PLAN` on
whichever executor it is handed (in-process by default; a
:class:`~repro.exec.YgmExecutor` is §2.4's "dividing up authors to be
checked among several compute nodes"), evaluating *every* triangle
surviving Step 2 with the vectorized :func:`repro.kernels.hyperedge_count`
kernel, and packages the paper's Step 3 output: ``w_xyz``,
``p_x + p_y + p_z``, and ``C(x, y, z)``.  ``all_triplets_brute``
enumerates *every* triplet with a nonzero hyperedge weight directly from
the incidence — the exponential direct approach the paper's pruning
avoids, kept as the recall oracle and as the naive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.exec.executors import SerialExecutor
from repro.exec.plans import (
    VALIDATION_PLAN,
    VALIDATION_TRIPLETS_PER_SECOND,
    triplet_range_shards,
)
from repro.hypergraph.incidence import UserPageIncidence
from repro.kernels import (
    hyperedge_count_reference,
    intersect3_sorted,
    normalized_scores,
)
from repro.tripoll.survey import TriangleSet

__all__ = [
    "TripletMetrics",
    "hyperedge_weight",
    "evaluate_triplets",
    "all_triplets_brute",
]


def hyperedge_weight(inc: UserPageIncidence, x: int, y: int, z: int) -> int:
    """``w_xyz`` (eq. 2): pages where *x*, *y*, *z* all comment.

    Intersects the two smallest slices first — the cheap algorithmic win
    the optimization guide prescribes (compute less before computing fast).
    """
    return int(
        intersect3_sorted(
            inc.pages_of(x), inc.pages_of(y), inc.pages_of(z)
        ).shape[0]
    )


@dataclass
class TripletMetrics:
    """Step 3 output for a set of candidate triplets.

    Attributes
    ----------
    triangles:
        The surveyed triangles the metrics are aligned to (Step 2 output,
        with CI edge weights).
    w_xyz:
        True hyperedge weight per triplet (eq. 2).
    p_sum:
        ``p_x + p_y + p_z`` per triplet (eq. 3 summed).
    c_scores:
        ``C(x, y, z)`` per triplet (eq. 4), in ``[0, 1]``.
    """

    triangles: TriangleSet
    w_xyz: np.ndarray
    p_sum: np.ndarray
    c_scores: np.ndarray

    @property
    def n_triplets(self) -> int:
        """Number of evaluated triplets."""
        return int(self.w_xyz.shape[0])

    def top_by_c(self, k: int) -> np.ndarray:
        """Indices of the *k* highest ``C`` scores (descending)."""
        order = np.argsort(-self.c_scores, kind="stable")
        return order[:k]

    def top_by_weight(self, k: int) -> np.ndarray:
        """Indices of the *k* highest hyperedge weights (descending)."""
        order = np.argsort(-self.w_xyz, kind="stable")
        return order[:k]

    def filter_mask(self, mask: np.ndarray) -> "TripletMetrics":
        """Restrict to triplets selected by a boolean mask."""
        return TripletMetrics(
            triangles=self.triangles.filter_mask(mask),
            w_xyz=self.w_xyz[mask],
            p_sum=self.p_sum[mask],
            c_scores=self.c_scores[mask],
        )


def evaluate_triplets(
    inc: UserPageIncidence,
    triangles: TriangleSet,
    *,
    executor=None,
    n_shards: int | None = None,
) -> TripletMetrics:
    """Compute eqs. 2–4 for every surveyed triangle.

    *executor* runs :data:`~repro.exec.plans.VALIDATION_PLAN` (defaults
    to an in-process :class:`~repro.exec.SerialExecutor`); *n_shards*
    cuts the triplet list into that many range shards (defaults to the
    executor's own sizing, ``executor.shard_count``).  The count
    concatenation is shard-ordered, so every executor returns identical
    metrics.

    Examples
    --------
    >>> from repro.graph import BipartiteTemporalMultigraph
    >>> from repro.graph.edgelist import EdgeList
    >>> from repro.tripoll import survey_triangles
    >>> btm = BipartiteTemporalMultigraph.from_comments(
    ...     [(u, p, 0) for p in ("p1", "p2") for u in ("a", "b", "c")]
    ... )
    >>> inc = UserPageIncidence.from_btm(btm)
    >>> tri = survey_triangles(EdgeList([0, 0, 1], [1, 2, 2]))
    >>> m = evaluate_triplets(inc, tri)
    >>> m.w_xyz.tolist(), m.c_scores.tolist()
    ([2], [1.0])
    """
    if executor is None:
        executor = SerialExecutor()
    if n_shards is None:
        n_shards = executor.shard_count(
            triangles.n_triangles, VALIDATION_TRIPLETS_PER_SECOND
        )
    shards = triplet_range_shards(
        triangles.a, triangles.b, triangles.c, max(1, n_shards)
    )
    context = {"indptr": inc.indptr, "page_ids": inc.page_ids}
    w = executor.run(VALIDATION_PLAN, shards, context)
    p = inc.page_counts()
    p_sum = (p[triangles.a] + p[triangles.b] + p[triangles.c]).astype(np.int64)
    c = normalized_scores(w, p_sum)
    return TripletMetrics(triangles=triangles, w_xyz=w, p_sum=p_sum, c_scores=c)


def all_triplets_brute(
    inc: UserPageIncidence, min_weight: int = 1
) -> dict[tuple[int, int, int], int]:
    """Every triplet with ``w_xyz >= min_weight``, by direct enumeration.

    This is the computation the paper's three-step pruning exists to
    avoid — O(Σ |users(p)|³) — usable only at oracle scale.  Returns
    ``{(x, y, z): w_xyz}`` with ``x < y < z``.
    """
    candidates: set[tuple[int, int, int]] = set()
    for _page, users in inc.users_per_page().items():
        if users.shape[0] < 3:
            continue
        candidates.update(combinations(users.tolist(), 3))
    if not candidates:
        return {}
    trips = sorted(candidates)
    arr = np.asarray(trips, dtype=np.int64)
    # The counting itself goes through the kernel's reference twin.
    w = hyperedge_count_reference(
        inc.indptr, inc.page_ids, arr[:, 0], arr[:, 1], arr[:, 2]
    )
    return {
        trip: int(wi)
        for trip, wi in zip(trips, w.tolist())
        if wi >= min_weight
    }
