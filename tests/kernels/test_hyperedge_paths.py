"""Both paths of :func:`repro.kernels.hyperedge_count` against its twin.

The kernel counts ``w_xyz`` either on packed page bitsets or by probing
each triplet's smallest page slice, whichever its input's sizes favour.
Every property here runs on both paths: ``BITSET_WORDS_PER_PROBE`` is set
to 0 to force the probe path, or past any input's word count to force the
bitset path.  ``BITSET_BLOCK_WORDS`` is shrunk to a few words so blocks
hold a handful of triplets and split ``(a, b)`` runs.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import hyperedge_count, hyperedge_count_reference, hyperedges

pytestmark = pytest.mark.kernels

PATHS = {"probe": 0, "bitset": 2**62}
#: Page-id offset at which ``user * stride + page`` no longer fits int64.
WIDE = 2**62


@contextmanager
def forced(path, block_words=hyperedges.BITSET_BLOCK_WORDS):
    """Run the body with the dispatch constant that forces *path*."""
    with mock.patch.object(hyperedges, "BITSET_WORDS_PER_PROBE", PATHS[path]), \
            mock.patch.object(hyperedges, "BITSET_BLOCK_WORDS", block_words):
        yield


def csr(slices, offset=0):
    """``(indptr, page_ids)`` of per-user sorted page lists."""
    indptr = np.cumsum([0] + [len(s) for s in slices]).astype(np.int64)
    page_ids = np.asarray([p + offset for s in slices for p in s], dtype=np.int64)
    return indptr, page_ids


def columns(trips):
    arr = np.asarray(trips, dtype=np.int64).reshape(-1, 3)
    return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()


@st.composite
def cases(draw):
    """Users whose pages are unions of up to three runs over 230 pages (so
    rows span up to four words, and some users hold none), and triplets
    drawn with repeats, in any order."""
    n_users = draw(st.integers(1, 8))
    runs = st.lists(st.tuples(st.integers(0, 150), st.integers(0, 80)), max_size=3)
    slices = [
        sorted({p for lo, n in draw(runs) for p in range(lo, lo + n)})
        for _ in range(n_users)
    ]
    user = st.integers(0, n_users - 1)
    return slices, draw(st.lists(st.tuples(user, user, user), max_size=40))


def assert_matches_reference(indptr, page_ids, trips):
    a, b, c = columns(trips)
    got = hyperedge_count(indptr, page_ids, a, b, c)
    want = hyperedge_count_reference(indptr, page_ids, a, b, c)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("path", sorted(PATHS))
class TestBothPaths:
    @settings(max_examples=100, deadline=None)
    @given(case=cases(), in_order=st.booleans(), block_words=st.integers(1, 6))
    def test_matches_reference(self, path, case, in_order, block_words):
        slices, trips = case
        with forced(path, block_words):
            assert_matches_reference(*csr(slices), sorted(trips) if in_order else trips)

    @settings(max_examples=40, deadline=None)
    @given(case=cases())
    def test_ids_past_the_strided_key_match_reference(self, path, case):
        slices, trips = case
        with forced(path):
            assert_matches_reference(*csr(slices, offset=WIDE), trips)

    def test_forced_path_runs_on_wide_rows_with_repeats(self, path):
        # 100 pages three users share (two words a row), an empty user,
        # repeated users and an (a, b) run split across one-triplet blocks.
        slices = [range(100), range(0, 100, 2), range(50, 150), [], range(3)]
        trips = [(0, 1, 2), (0, 1, 4), (0, 1, 3), (2, 1, 0), (4, 4, 4), (1, 1, 2)]
        with forced(path, block_words=2), \
                mock.patch.object(hyperedges, "_count_bits", wraps=hyperedges._count_bits) as bits:
            assert_matches_reference(*csr(slices), trips)
        assert bits.called == (path == "bitset")


def test_bit_matrix_larger_than_probe_temporaries_takes_the_probe_path():
    """300 users in 100 disjoint triples, each triple sharing three pages:
    the words are cheap (5 per triplet against 3 probes), but 300 rows of
    5 words outweigh the probe path's 900 keys plus 300 probes."""
    slices = [[3 * (u // 3) + k for k in range(3)] for u in range(300)]
    trips = [(u, u + 1, u + 2) for u in range(0, 300, 3)]
    with mock.patch.object(hyperedges, "_count_bits") as bits:
        assert_matches_reference(*csr(slices), trips)
    assert not bits.called
