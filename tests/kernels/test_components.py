"""The connected-components kernel against its :class:`UnionFind` twin.

Random graphs cover the cases the callers lean on: no edges, ids inside
``n`` that touch no edge, duplicate and reversed edges, self-loops, and
the ``min_size`` floors 1, 2 and 3.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList, connected_components
from repro.kernels import component_members, component_members_reference

pytestmark = pytest.mark.kernels


def component_lists(src, dst, n, min_size=1, kernel=component_members):
    """The kernel's ``(members, bounds)`` as one list per component."""
    members, bounds = kernel(src, dst, n, min_size)
    assert members.dtype == bounds.dtype == np.int64
    assert bounds[0] == 0 and bounds[-1] == members.shape[0]
    cuts = bounds.tolist()
    return [members[lo:hi].tolist() for lo, hi in zip(cuts, cuts[1:])]


def component_lists_reference(src, dst, n, min_size=1):
    return component_lists(src, dst, n, min_size, component_members_reference)


def random_graph(seed, n, m):
    """``m`` random edges over ``0..n-1``, each doubled reversed half the time."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    twice = rng.random(m) < 0.5
    return np.r_[src, dst[twice]], np.r_[dst, src[twice]]


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 30))
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    return src, dst, n


@settings(max_examples=200, deadline=None)
@given(graphs(), st.sampled_from([1, 2, 3]))
def test_lists_match_reference(graph, min_size):
    src, dst, n = graph
    assert component_lists(src, dst, n, min_size) == component_lists_reference(
        src, dst, n, min_size
    )


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("min_size", [1, 2, 3])
def test_sparse_graphs_with_isolated_ids(seed, min_size):
    # 200 ids, about 90 edges: many ids inside n touch no edge.
    src, dst = random_graph(seed, 200, 60)
    got = component_lists(src, dst, 200, min_size)
    assert got == component_lists_reference(src, dst, 200, min_size)
    touched = set(src.tolist()) | set(dst.tolist())
    members = {v for comp in got for v in comp}
    assert len(touched) < 200 and members <= touched
    assert min_size > 1 or members == touched


@pytest.mark.parametrize("seed", range(8))
def test_partition_matches_networkx(seed):
    src, dst = random_graph(seed, 120, 100)
    g = nx.Graph()
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    want = sorted(
        (sorted(c) for c in nx.connected_components(g)), key=lambda c: (-len(c), c)
    )
    assert component_lists(src, dst, 120) == want
    loops = src == dst
    labels = connected_components(EdgeList(src[~loops], dst[~loops]), 120)
    for comp in want:
        if len(comp) > 1:
            assert set(labels[comp].tolist()) == {comp[0]}


def test_no_edges():
    empty = np.empty(0, dtype=np.int64)
    assert component_lists(empty, empty, 5) == []
    assert component_lists(empty, empty, 0) == []
    assert component_lists_reference(empty, empty, 5) == []


def test_duplicate_reversed_and_self_loop_edges():
    src = np.array([3, 1, 1, 7, 9])
    dst = np.array([1, 3, 3, 7, 8])
    assert component_lists(src, dst, 10) == [[1, 3], [8, 9], [7]]
    assert component_lists(src, dst, 10, min_size=2) == [[1, 3], [8, 9]]
    assert component_lists(src, dst, 10, min_size=3) == []
