"""Properties of the one row sort behind ``w'`` and ``P'``.

:func:`repro.util.keys.unique_rows` packs each row into one int64 key
when the key fits and falls back to ``np.lexsort`` when it does not (or
when the input is too small to pay for packing).  Every property here
runs on both paths: ``PACK_MIN_ROWS`` is lowered to 0 to pack even tiny
inputs, or raised past any input size to force the lexsort path.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    cooccur_pairs,
    cooccur_pairs_reference,
    dedup_triples,
    merge_triples,
    pair_ledger,
    pair_ledger_reference,
    pair_weights,
    pair_weights_reference,
)
from repro.projection.window import TimeWindow
from repro.util import keys
from repro.util.grouping import unique_pair_weights
from repro.util.keys import unique_rows

pytestmark = pytest.mark.kernels

PATHS = {"packed": 0, "lexsort": 2**62}
N_USERS = 12

corpora = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 200), st.integers(0, N_USERS - 1)),
    max_size=60,
)
triple_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 8), st.integers(0, 8)), max_size=40
)


@contextmanager
def pack_from(min_rows):
    """Run the body with ``keys.PACK_MIN_ROWS`` set to *min_rows*."""
    saved = keys.PACK_MIN_ROWS
    keys.PACK_MIN_ROWS = min_rows
    try:
        yield
    finally:
        keys.PACK_MIN_ROWS = saved


def columns(rows, width=3):
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, width)
    return tuple(arr[:, i] for i in range(width))


def sorted_corpus(rows):
    """``(users, pages, times)`` sorted by ``(page, time)``."""
    pages, times, users = columns(rows)
    order = np.lexsort((times, pages))
    return users[order], pages[order], times[order]


def lexsort_pair_weights(a, b, weights):
    """``unique_pair_weights`` as it was before the packed key: the oracle
    for bit-identical float sums."""
    if a.shape[0] == 0:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
    order = np.lexsort((b, a))
    sa, sb, sw = a[order], b[order], weights[order]
    new_run = np.empty(a.shape[0], dtype=bool)
    new_run[0] = True
    np.logical_or(sa[1:] != sa[:-1], sb[1:] != sb[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    csum = np.concatenate(([0], np.cumsum(sw)))
    stops = np.concatenate((starts[1:], [a.shape[0]]))
    return sa[starts], sb[starts], (csum[stops] - csum[starts]).astype(sw.dtype)


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("path", sorted(PATHS))
class TestBothPaths:
    @settings(max_examples=60, deadline=None)
    @given(rows=corpora, pair_batch=st.integers(1, 7), d2=st.integers(1, 90))
    def test_kernels_match_reference_twins(self, path, rows, pair_batch, d2):
        users, pages, times = sorted_corpus(rows)
        window = TimeWindow(0, d2)
        with pack_from(PATHS[path]):
            batches = list(cooccur_pairs(users, pages, times, window, pair_batch))
            pg, a, b = merge_triples([t[:3] for t in batches])
            counted = merge_triples(batches or [columns([], width=4)])
            ua, ub, w = pair_weights(a, b)
            ledger = pair_ledger(pg, a, b, N_USERS)
        pg_r, a_r, b_r, n_obs_r = cooccur_pairs_reference(users, pages, times, window)
        assert_same((pg, a, b), (pg_r, a_r, b_r))
        # Counts of a triple split across batch seams add up to its tally.
        assert_same(counted, (pg_r, a_r, b_r, n_obs_r))
        assert sum(int(t[3].sum()) for t in batches) == int(n_obs_r.sum())
        assert_same((ua, ub, w), pair_weights_reference(a_r, b_r))
        assert_same((ledger,), (pair_ledger_reference(pg_r, a_r, b_r, N_USERS),))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=triple_rows,
        picks=st.lists(st.lists(st.integers(0, 39), max_size=12), max_size=5),
    )
    def test_merge_of_overlapping_out_of_order_and_empty_parts(
        self, path, rows, picks
    ):
        pg, a, b = columns(rows)
        parts = []
        for k, pick in enumerate(picks):  # each part: a sorted, distinct subset
            idx = np.asarray([i for i in pick if i < pg.shape[0]], dtype=np.int64)
            triples = dedup_triples(pg[idx], a[idx], b[idx])
            # Counts 1, 2, 4, ... per part, so every sum names its parts.
            parts.append((*triples, np.full(triples[0].shape[0], 1 << k)))
        with pack_from(PATHS[path]):
            got = merge_triples([p[:3] for p in parts])
            counted = merge_triples(parts or [columns([], width=4)])
        tally: dict[tuple, int] = {}
        for p in parts:
            for t, n in zip(zip(*(c.tolist() for c in p[:3])), p[3].tolist()):
                tally[t] = tally.get(t, 0) + n
        union = sorted(tally)
        assert_same(got, columns(union))
        assert_same(counted, columns([(*t, tally[t]) for t in union], width=4))

    def test_tie_at_a_seam_is_deduplicated(self, path):
        first = (np.array([1, 2]), np.array([0, 3]), np.array([4, 5]))
        second = (np.array([2, 3]), np.array([3, 0]), np.array([5, 1]))
        with pack_from(PATHS[path]):
            pg, a, b = merge_triples([first, second])
        assert list(zip(pg.tolist(), a.tolist(), b.tolist())) == [
            (1, 0, 4), (2, 3, 5), (3, 0, 1)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 6),
                st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_float_weight_sums_are_bit_identical_to_lexsort(self, path, rows):
        a, b = columns([r[:2] for r in rows], width=2)
        w = np.asarray([r[2] for r in rows], dtype=np.float64)
        with pack_from(PATHS[path]):
            got = unique_pair_weights(a, b, w)
        assert_same(got, lexsort_pair_weights(a, b, w))

    def test_ledger_id_past_n_users_raises(self, path):
        pg, a, b = np.array([0, 1]), np.array([0, 2]), np.array([1, N_USERS])
        with pack_from(PATHS[path]), pytest.raises(IndexError):
            pair_ledger(pg, a, b, N_USERS)


@settings(max_examples=60, deadline=None)
@given(rows=triple_rows)
def test_wide_ids_take_the_fallback_and_agree_with_packed(rows):
    """Ids near 2**40 cannot pack even two columns into int64, so those
    rows go through ``np.lexsort``.  The map ``c -> c * 2**38 + 2**40``
    keeps the row order, so the same rows packed small must give the
    mapped answer, the same permutation and bit-identical float sums."""
    small = columns(rows)
    wide = tuple(c * 2**38 + 2**40 for c in small)
    weights = small[0] * 0.1
    with pack_from(0), mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
        got_small, runs_small, order_small = unique_rows(small, with_order=True)
        w_small = unique_pair_weights(small[1], small[2], weights)
        small_lexsorts = spy.call_count
        got_wide, runs_wide, order_wide = unique_rows(wide, with_order=True)
        w_wide = unique_pair_weights(wide[1], wide[2], weights)
    assert small_lexsorts == (0 if rows else 1)  # only empty input never packs
    assert spy.call_count - small_lexsorts == (2 if rows else 1)
    assert_same(got_wide, tuple(c * 2**38 + 2**40 for c in got_small))
    assert_same((runs_wide, order_wide), (runs_small, order_small))
    assert_same(w_wide[2:], w_small[2:])
    assert_same(w_wide, lexsort_pair_weights(wide[1], wide[2], weights))
