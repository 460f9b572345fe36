"""Tests for triplet agglomeration into larger candidate groups."""

import networkx as nx
import numpy as np
import pytest

from repro.hypergraph.groups import agglomerate_groups
from repro.hypergraph.triplets import TripletMetrics
from repro.tripoll.survey import TriangleSet


def metrics_of(triplets, w_xyz, c_scores):
    """Build TripletMetrics from explicit triplet rows."""
    arr = np.asarray(triplets, dtype=np.int64)
    n = arr.shape[0]
    ones = np.ones(n, dtype=np.int64)
    ts = TriangleSet(
        a=arr[:, 0], b=arr[:, 1], c=arr[:, 2],
        w_ab=ones, w_ac=ones, w_bc=ones,
    )
    return TripletMetrics(
        triangles=ts,
        w_xyz=np.asarray(w_xyz, dtype=np.int64),
        p_sum=np.full(n, 10, dtype=np.int64),
        c_scores=np.asarray(c_scores, dtype=np.float64),
    )


class TestAgglomeration:
    def test_pair_sharing_triplets_merge(self):
        m = metrics_of([(1, 2, 3), (1, 2, 4)], [5, 5], [0.5, 0.5])
        groups = agglomerate_groups(m)
        assert len(groups) == 1
        assert groups[0].members == (1, 2, 3, 4)
        assert groups[0].n_triplets == 2

    def test_single_shared_vertex_does_not_merge(self):
        # Triplets sharing only author 1 stay separate (hub protection).
        m = metrics_of([(1, 2, 3), (1, 4, 5)], [5, 5], [0.5, 0.5])
        groups = agglomerate_groups(m)
        assert len(groups) == 2

    def test_transitive_merging(self):
        m = metrics_of(
            [(1, 2, 3), (2, 3, 4), (3, 4, 5)], [5, 5, 5], [0.5, 0.5, 0.5]
        )
        groups = agglomerate_groups(m)
        assert len(groups) == 1
        assert groups[0].members == (1, 2, 3, 4, 5)

    def test_score_filters(self):
        m = metrics_of([(1, 2, 3), (4, 5, 6)], [5, 1], [0.9, 0.1])
        groups = agglomerate_groups(m, min_c_score=0.5)
        assert len(groups) == 1
        assert groups[0].members == (1, 2, 3)

    def test_weight_filter(self):
        m = metrics_of([(1, 2, 3)], [1], [0.9])
        assert agglomerate_groups(m, min_w_xyz=2) == []

    def test_empty_metrics(self):
        m = metrics_of(np.zeros((0, 3)), [], [])
        assert agglomerate_groups(m) == []

    def test_groups_sorted_by_size(self):
        m = metrics_of(
            [(1, 2, 3), (1, 2, 4), (7, 8, 9)], [5, 5, 5], [0.5, 0.5, 0.9]
        )
        groups = agglomerate_groups(m)
        assert [g.size for g in groups] == [4, 3]

    def test_group_statistics(self):
        m = metrics_of([(1, 2, 3), (1, 2, 4)], [3, 7], [0.4, 0.8])
        g = agglomerate_groups(m)[0]
        assert g.min_w_xyz == 3 and g.max_w_xyz == 7
        assert g.mean_c_score == pytest.approx(0.6)


def brute_force_groups(triplets, w_xyz, c_scores):
    """Group triplets that share an author pair, with networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(len(triplets)))
    by_pair = {}
    for i, (a, b, c) in enumerate(triplets):
        for pair in ((a, b), (a, c), (b, c)):
            by_pair.setdefault(pair, []).append(i)
    for ids in by_pair.values():
        g.add_edges_from(zip(ids, ids[1:]))
    rows = []
    for comp in nx.connected_components(g):
        ids = sorted(comp)
        members = tuple(sorted({v for i in ids for v in triplets[i]}))
        mean = float(np.asarray(c_scores, dtype=np.float64)[ids].mean())
        w = [w_xyz[i] for i in ids]
        rows.append((members, len(ids), mean, min(w), max(w)))
    rows.sort(key=lambda r: (-len(r[0]), -r[2], r[0]))
    return rows


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx_pair_grouping(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))  # over 85 takes the packed-key path
        triplets = [
            tuple(int(v) for v in sorted(rng.choice(14, 3, replace=False)))
            for _ in range(n)
        ]
        w_xyz = rng.integers(1, 9, n).tolist()
        # Quarter steps: equal sizes and equal means tie on members.
        c_scores = (rng.integers(0, 5, n) / 4).tolist()
        groups = agglomerate_groups(metrics_of(triplets, w_xyz, c_scores))
        got = [
            (g.members, g.n_triplets, g.mean_c_score, g.min_w_xyz, g.max_w_xyz)
            for g in groups
        ]
        assert got == brute_force_groups(triplets, w_xyz, c_scores)

    @pytest.mark.parametrize("seed", range(4))
    def test_filters_then_groups(self, seed):
        rng = np.random.default_rng(100 + seed)
        triplets = [
            tuple(int(v) for v in sorted(rng.choice(10, 3, replace=False)))
            for _ in range(40)
        ]
        w_xyz = rng.integers(1, 9, 40).tolist()
        c_scores = rng.random(40).tolist()
        kept = [
            i for i in range(40) if c_scores[i] >= 0.3 and w_xyz[i] >= 4
        ]
        groups = agglomerate_groups(
            metrics_of(triplets, w_xyz, c_scores), min_c_score=0.3, min_w_xyz=4
        )
        got = [
            (g.members, g.n_triplets, g.mean_c_score, g.min_w_xyz, g.max_w_xyz)
            for g in groups
        ]
        assert got == brute_force_groups(
            [triplets[i] for i in kept],
            [w_xyz[i] for i in kept],
            [c_scores[i] for i in kept],
        )
