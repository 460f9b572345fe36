"""The unified vectorized kernel layer.

Every counting loop the paper's three steps need — window bounds, pair
merging, the ``P'`` ledger, triangle enumeration, hyperedge counting,
score normalization, connected components — lives *here*, once, as a
pure array kernel with a slow reference twin.  The projection, survey,
validation, and serving engines are thin orchestration over these
kernels (partitioning and plumbing only); cross-engine agreement is
therefore structural, not merely asserted after the fact by the parity
harness.

Design rules (enforced by the ``tests/kernels`` property suite and the
``_window_bounds``-style grep checks in CI):

- Kernels take plain numpy arrays (plus scalars / duck-typed windows) and
  return plain numpy arrays — no engine dataclasses, no container types.
- Every kernel ``k`` ships with ``k_reference``, an obviously-correct
  Python-loop twin; property tests assert ``k ≡ k_reference`` on
  randomized inputs.
- Kernels never import engine packages (``repro.projection``,
  ``repro.tripoll``, ``repro.hypergraph``, …) — only :mod:`repro.util`
  and :mod:`repro.graph` — so every engine can import them without
  cycles.

Windows are duck-typed: any object with ``delta1`` / ``delta2``
attributes (e.g. :class:`repro.projection.window.TimeWindow`) or a plain
``(delta1, delta2)`` tuple is accepted.
"""

from repro.kernels.windows import window_bounds, window_bounds_reference
from repro.kernels.pairs import (
    cooccur_pairs,
    cooccur_pairs_reference,
    dedup_triples,
    merge_triples,
)
from repro.kernels.ledger import (
    pair_ledger,
    pair_ledger_reference,
    pair_weights,
    pair_weights_reference,
)
from repro.kernels.triangles import (
    close_wedges,
    forward_adjacency,
    triangle_enum,
    triangle_enum_reference,
    wedge_counts,
)
from repro.kernels.hyperedges import (
    hyperedge_count,
    hyperedge_count_reference,
    intersect3_sorted,
)
from repro.kernels.components import component_members, component_members_reference
from repro.kernels.scores import (
    normalized_score_scalar,
    normalized_scores,
    normalized_scores_reference,
)

__all__ = [
    "window_bounds",
    "window_bounds_reference",
    "cooccur_pairs",
    "cooccur_pairs_reference",
    "dedup_triples",
    "merge_triples",
    "pair_ledger",
    "pair_ledger_reference",
    "pair_weights",
    "pair_weights_reference",
    "forward_adjacency",
    "wedge_counts",
    "close_wedges",
    "triangle_enum",
    "triangle_enum_reference",
    "hyperedge_count",
    "hyperedge_count_reference",
    "intersect3_sorted",
    "normalized_scores",
    "normalized_scores_reference",
    "normalized_score_scalar",
    "component_members",
    "component_members_reference",
]
