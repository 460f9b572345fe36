"""Property tests: every vectorized kernel ≡ its slow reference twin.

Each kernel in :mod:`repro.kernels` ships with an obviously-correct
reference implementation; these tests pin the pair together on
randomized inputs so any future optimization of the fast path is checked
against frozen semantics, not against itself.
"""

import numpy as np
import pytest

from repro.graph.edgelist import EdgeList
from repro.graph.ordering import degree_order
from repro.kernels import (
    cooccur_pairs,
    cooccur_pairs_reference,
    hyperedge_count,
    hyperedge_count_reference,
    merge_triples,
    normalized_score_scalar,
    normalized_scores,
    normalized_scores_reference,
    pair_ledger,
    pair_ledger_reference,
    pair_weights,
    pair_weights_reference,
    triangle_enum,
    triangle_enum_reference,
    window_bounds,
    window_bounds_reference,
)
from repro.projection.window import TimeWindow

pytestmark = pytest.mark.kernels

N_INSTANCES = 25


def random_corpus(rng, n_rows=None, n_users=10, n_pages=5, t_max=300):
    """(users, pages, times) sorted by (page, time), with time ties."""
    if n_rows is None:
        n_rows = int(rng.integers(0, 60))
    users = rng.integers(0, n_users, n_rows)
    pages = rng.integers(0, n_pages, n_rows)
    times = rng.integers(0, t_max, n_rows)
    order = np.lexsort((times, pages))
    return users[order], pages[order], times[order]


def random_window(rng):
    d1 = int(rng.integers(0, 3)) * int(rng.integers(0, 20))
    return TimeWindow(d1, d1 + int(rng.integers(1, 120)))


class TestWindowBounds:
    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        users, pages, times = random_corpus(rng)
        window = random_window(rng)
        lo_f, hi_f = window_bounds(pages, times, window)
        lo_r, hi_r = window_bounds_reference(pages, times, window)
        assert np.array_equal(lo_f, lo_r)
        assert np.array_equal(hi_f, hi_r)


class TestCooccurPairs:
    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        users, pages, times = random_corpus(rng)
        window = random_window(rng)
        # Tiny pair_batch forces many batches with cross-batch repeats.
        pair_batch = int(rng.integers(1, 50))
        batches = list(cooccur_pairs(users, pages, times, window, pair_batch))
        pg, a, b = merge_triples([t[:3] for t in batches])
        pg_r, a_r, b_r, n_obs_r = cooccur_pairs_reference(
            users, pages, times, window
        )
        assert np.array_equal(pg, pg_r)
        assert np.array_equal(a, a_r)
        assert np.array_equal(b, b_r)
        # Each triple's count, summed across batch seams, is its tally
        # (no batch at all when no row has a candidate mate).
        if batches:
            counted = merge_triples(batches)
            for got, want in zip(counted, (pg_r, a_r, b_r, n_obs_r), strict=True):
                assert np.array_equal(got, want)
        else:
            assert not n_obs_r.shape[0]
        assert sum(int(t[3].sum()) for t in batches) == int(n_obs_r.sum())


class TestLedger:
    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_weights_and_ledger_match_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        users, pages, times = random_corpus(rng)
        window = random_window(rng)
        pg, a, b, _ = cooccur_pairs_reference(users, pages, times, window)
        n_users = 10
        for got, ref in (
            (pair_weights(a, b), pair_weights_reference(a, b)),
            (
                (pair_ledger(pg, a, b, n_users),),
                (pair_ledger_reference(pg, a, b, n_users),),
            ),
        ):
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)


def canonical_rows(raw):
    """Raw triangle 6-tuples as sorted (a, b, c, w_ab, w_ac, w_bc) rows.

    ``close_wedges`` emits vertices in rank order with weights slotted by
    position; the reference emits ``a < b < c``.  Re-keying the weights
    by unordered pair makes the two comparable.
    """
    rows = []
    for x, y, z, wxy, wxz, wyz in zip(*(arr.tolist() for arr in raw)):
        w = {
            frozenset((x, y)): wxy,
            frozenset((x, z)): wxz,
            frozenset((y, z)): wyz,
        }
        a, b, c = sorted((x, y, z))
        rows.append(
            (a, b, c, w[frozenset((a, b))], w[frozenset((a, c))],
             w[frozenset((b, c))])
        )
    return sorted(rows)


class TestTriangleEnum:
    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_vertices = int(rng.integers(3, 14))
        n_edges = int(rng.integers(0, 30))
        src = rng.integers(0, n_vertices, n_edges)
        dst = rng.integers(0, n_vertices, n_edges)
        keep = src != dst
        acc = EdgeList(src[keep], dst[keep]).accumulate()
        rank = degree_order(acc, n_vertices)
        wedge_batch = int(rng.integers(1, 40))
        batches = list(
            triangle_enum(
                acc.src, acc.dst, acc.weight, rank, n_vertices, wedge_batch
            )
        )
        got = (
            tuple(
                np.concatenate([b[i] for b in batches]) for i in range(6)
            )
            if batches
            else tuple(np.empty(0, dtype=np.int64) for _ in range(6))
        )
        ref = triangle_enum_reference(acc.src, acc.dst, acc.weight)
        assert canonical_rows(got) == canonical_rows(ref)


class TestHyperedgeCount:
    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(400 + seed)
        n_users, n_pages = 8, 6
        # CSR incidence: per-user sorted distinct pages.
        rows = []
        indptr = [0]
        for _u in range(n_users):
            pages = np.unique(rng.integers(0, n_pages, int(rng.integers(0, 5))))
            rows.append(pages)
            indptr.append(indptr[-1] + pages.shape[0])
        indptr = np.asarray(indptr, dtype=np.int64)
        page_ids = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        ).astype(np.int64)
        n_trip = int(rng.integers(0, 12))
        trips = np.sort(rng.integers(0, n_users, (n_trip, 3)), axis=1)
        a, b, c = trips[:, 0], trips[:, 1], trips[:, 2]
        got = hyperedge_count(indptr, page_ids, a, b, c)
        ref = hyperedge_count_reference(indptr, page_ids, a, b, c)
        assert np.array_equal(got, ref)


class TestScores:
    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(0, 40))
        numer = rng.integers(0, 50, n)
        denom = rng.integers(0, 150, n)
        got = normalized_scores(numer, denom)
        ref = normalized_scores_reference(numer, denom)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_scalar_bit_matches_vector(self, seed):
        # The online service scores one triangle at a time through the
        # scalar twin; it must be bit-identical to the batch kernel.
        rng = np.random.default_rng(600 + seed)
        numer = int(rng.integers(0, 50))
        denom = int(rng.integers(0, 150))
        vec = normalized_scores(
            np.asarray([numer], dtype=np.int64),
            np.asarray([denom], dtype=np.int64),
        )
        assert normalized_score_scalar(numer, denom) == vec[0]
