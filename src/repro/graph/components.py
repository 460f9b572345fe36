"""Connected components of edge lists and name-keyed graphs, plus a YGM variant.

The paper reports coordinated botnets as *connected components* of the
threshold-pruned common-interaction graph (§3.1.1).  Every in-process
computation goes through the one kernel, :mod:`repro.kernels.components`.
The distributed variant runs asynchronous min-label propagation on a
:class:`~repro.ygm.DistMap` and converges to the smallest-id labels of
:func:`connected_components`; tests cross-check both against networkx.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.kernels.components import UnionFind, component_members
from repro.ygm.handlers import ygm_handler
from repro.ygm.partition import HashPartitioner

__all__ = [
    "UnionFind",
    "connected_components",
    "components_as_lists",
    "named_components",
    "distributed_components",
]


def connected_components(
    edges: EdgeList, n_vertices: int | None = None
) -> np.ndarray:
    """Component label (smallest member id) for each vertex ``0..n_vertices-1``.

    Vertices touching no edge form singleton components labelled by
    themselves.
    """
    n = edges.max_vertex + 1 if n_vertices is None else int(n_vertices)
    labels = np.arange(n, dtype=np.int64)
    members, bounds = component_members(edges.src, edges.dst, n)
    labels[members] = np.repeat(members[bounds[:-1]], np.diff(bounds))
    return labels


def components_as_lists(
    edges: EdgeList, min_size: int = 2, n_vertices: int | None = None
) -> list[list[int]]:
    """Components with at least *min_size* vertices, largest first.

    Only vertices incident to an edge are considered (matching the paper,
    which inspects components of the *thresholded* CI graph).
    """
    n = edges.max_vertex + 1 if n_vertices is None else int(n_vertices)
    members, bounds = component_members(edges.src, edges.dst, n, min_size)
    return _split(members.tolist(), bounds)


def named_components(
    src: Sequence[str], dst: Sequence[str], min_size: int = 1
) -> list[list[str]]:
    """Components of the edges ``src[i]``–``dst[i]`` between names, canonically.

    Names are interned in sorted order, so id order is name order and the
    kernel's output (members ascending, largest first, ties on members)
    is already canonical by name.
    """
    names = sorted(set(src).union(dst))
    ids = {name: i for i, name in enumerate(names)}
    src_ids, dst_ids = np.array([ids[v] for v in src]), np.array([ids[v] for v in dst])
    members, bounds = component_members(src_ids, dst_ids, len(names), min_size)
    return _split([names[i] for i in members.tolist()], bounds)


def _split(flat: list, bounds: np.ndarray) -> list[list]:
    """``flat`` cut at the kernel's component *bounds*."""
    cuts = bounds.tolist()
    return [flat[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# Distributed variant: asynchronous min-label propagation on the YGM runtime.
#
# Each vertex's owner rank holds ``{vertex: [current_label, neighbors]}``.
# Inserting an edge records the adjacency on both endpoints and sends each
# endpoint's current label across it; a rank receiving a smaller label adopts
# it and forwards it to all recorded neighbors.  Quiescence (the barrier)
# is convergence: every vertex ends at the minimum id in its component.
# Handler payloads carry the container id because handlers only see
# rank-local state, never driver objects.
# ---------------------------------------------------------------------------


def _owner(ctx, key: int) -> int:
    """Owner rank of an integer key under the standard hash partitioner."""
    return HashPartitioner(ctx.n_ranks).owner(key)


@ygm_handler("repro.cc.add_edge")
def _h_add_edge(ctx, state: dict, payload) -> None:
    vertex, neighbor, cid = payload
    entry = state.setdefault(vertex, [vertex, []])
    entry[1].append(neighbor)
    ctx.send(
        _owner(ctx, neighbor), cid, "repro.cc.propose", (neighbor, entry[0], cid)
    )


@ygm_handler("repro.cc.propose")
def _h_propose(ctx, state: dict, payload) -> None:
    vertex, label, cid = payload
    entry = state.setdefault(vertex, [vertex, []])
    if label < entry[0]:
        entry[0] = label
        for nbr in entry[1]:
            ctx.send(_owner(ctx, nbr), cid, "repro.cc.propose", (nbr, label, cid))


def distributed_components(edges: EdgeList, world) -> dict[int, int]:
    """Min-label propagation over the YGM runtime: ``{vertex: label}``.

    Every vertex incident to an edge converges to the minimum vertex id in
    its component — a canonical labelling equal (up to representative
    choice) to the union-find partition; tests assert the partitions match.
    """
    from repro.ygm.containers.map import DistMap

    dmap = DistMap(world)
    cid = dmap.container_id
    for s, d in zip(edges.src, edges.dst):
        s, d = int(s), int(d)
        world.async_send(dmap.owner(s), cid, "repro.cc.add_edge", (s, d, cid))
        world.async_send(dmap.owner(d), cid, "repro.cc.add_edge", (d, s, cid))
    world.barrier()
    labels = {int(v): int(entry[0]) for v, entry in dmap.to_dict().items()}
    dmap.release()
    return labels
