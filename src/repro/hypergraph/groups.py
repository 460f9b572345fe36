"""Agglomerating verified triplets into larger candidate botnets.

The paper's framework stops at triplets but notes (§2.1.2, §4.2) that
"these methods … still leave the possibility for larger groups to be
formed after triplets of interest have been shown to exhibit coordination".
This module implements that post-processing: triplets passing a
coordination bar are merged whenever they share a pair of authors
(sharing a full edge — rather than a single author — keeps hub users from
gluing unrelated botnets together), and each merged group is reported with
its member set and supporting-triplet count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hypergraph.triplets import TripletMetrics
from repro.kernels.components import component_members
from repro.util.keys import unique_rows

__all__ = ["CandidateGroup", "agglomerate_groups"]


@dataclass(frozen=True)
class CandidateGroup:
    """A merged coordination candidate.

    Attributes
    ----------
    members:
        Sorted author ids in the group.
    n_triplets:
        Number of verified triplets supporting the group.
    mean_c_score:
        Mean ``C(x, y, z)`` over the supporting triplets.
    min_w_xyz, max_w_xyz:
        Range of supporting hyperedge weights.
    """

    members: tuple[int, ...]
    n_triplets: int
    mean_c_score: float
    min_w_xyz: int
    max_w_xyz: int

    @property
    def size(self) -> int:
        return len(self.members)


def agglomerate_groups(
    metrics: TripletMetrics,
    min_c_score: float = 0.0,
    min_w_xyz: int = 1,
) -> list[CandidateGroup]:
    """Merge qualifying triplets into maximal pair-linked groups.

    Parameters
    ----------
    metrics:
        Step 3 output.
    min_c_score, min_w_xyz:
        A triplet must meet both bars to participate.

    Returns
    -------
    Groups sorted by size (descending), then by mean ``C`` (descending).

    Examples
    --------
    Two triplets sharing the pair ``(1, 2)`` merge into one 4-author group::

        {1, 2, 3} + {1, 2, 4}  ->  members (1, 2, 3, 4)
    """
    mask = (metrics.c_scores >= min_c_score) & (metrics.w_xyz >= min_w_xyz)
    kept = metrics.filter_mask(mask)
    n = kept.n_triplets
    if n == 0:
        return []

    # Groups are the components of the triplet–pair bipartite graph:
    # triplet i links to node n + j for each of its three author pairs j.
    tri = kept.triangles
    pairs = (np.r_[tri.a, tri.a, tri.b], np.r_[tri.b, tri.c, tri.c])
    _, runs, order = unique_rows(pairs, with_order=True)
    n_pairs = runs.shape[0] - 1
    pair_id = np.empty(3 * n, dtype=np.int64)
    pair_id[order] = np.repeat(np.arange(n_pairs), np.diff(runs))
    triplet_id = np.tile(np.arange(n, dtype=np.int64), 3)
    groups: list[CandidateGroup] = []
    nodes, bounds = component_members(triplet_id, n + pair_id, n + n_pairs)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        idx = nodes[lo:hi]
        idx = idx[idx < n]  # ascending triplet ids, as mean_c_score sums them
        members = np.unique(
            np.concatenate((tri.a[idx], tri.b[idx], tri.c[idx]))
        )
        groups.append(
            CandidateGroup(
                members=tuple(int(m) for m in members),
                n_triplets=int(idx.shape[0]),
                mean_c_score=float(kept.c_scores[idx].mean()),
                min_w_xyz=int(kept.w_xyz[idx].min()),
                max_w_xyz=int(kept.w_xyz[idx].max()),
            )
        )
    groups.sort(key=lambda g: (-g.size, -g.mean_c_score, g.members))
    return groups
