"""Step 3 — hypergraph validation of candidate triplets (paper §2.1.2–§2.1.3, §2.4).

After Steps 1–2 prune the O(|U|³) triplet space to the triangles of the
thresholded common-interaction graph, Step 3 returns to the original
bipartite data and computes the *true* multiway interaction counts:

- ``w_xyz`` — the triplet hyperedge weight: the number of distinct pages
  where all three authors comment at least once (eq. 2), computed over the
  deduplicated user–page incidence (:mod:`~repro.hypergraph.incidence`).
- ``p_x`` — distinct pages per author (eq. 3).
- ``C(x, y, z) = 3·w_xyz / (p_x + p_y + p_z) ∈ [0, 1]`` — the normalized
  triplet coordination score (eq. 4).

:mod:`~repro.hypergraph.triplets` evaluates these in bulk for a surveyed
:class:`~repro.tripoll.TriangleSet`; :mod:`~repro.hypergraph.groups`
agglomerates verified triplets into larger candidate botnets (the paper's
"larger groups formed after the fact", §4.2).
"""

from repro.hypergraph.incidence import UserPageIncidence
from repro.hypergraph.triplets import (
    TripletMetrics,
    evaluate_triplets,
    hyperedge_weight,
    all_triplets_brute,
)
from repro.hypergraph.groups import agglomerate_groups
from repro.hypergraph.windowed import WindowedTripletEvaluator
from repro.hypergraph.kgroups import (
    GroupMetrics,
    evaluate_group,
    group_hyperedge_weight,
)

__all__ = [
    "UserPageIncidence",
    "TripletMetrics",
    "evaluate_triplets",
    "hyperedge_weight",
    "all_triplets_brute",
    "agglomerate_groups",
    "WindowedTripletEvaluator",
    "GroupMetrics",
    "evaluate_group",
    "group_hyperedge_weight",
]
