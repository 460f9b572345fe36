"""Tests for the vectorized group-by kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.grouping import (
    counts_from_sorted,
    group_boundaries,
    group_slices,
    run_lengths,
    unique_pair_weights,
)


class TestGroupBoundaries:
    def test_empty_input(self):
        assert group_boundaries(np.array([])).tolist() == [0]

    def test_single_run(self):
        assert group_boundaries(np.array([5, 5, 5])).tolist() == [0, 3]

    def test_multiple_runs(self):
        assert group_boundaries(np.array([1, 1, 2, 3, 3, 3])).tolist() == [
            0,
            2,
            3,
            6,
        ]

    def test_all_distinct(self):
        assert group_boundaries(np.array([1, 2, 3])).tolist() == [0, 1, 2, 3]

    def test_group_slices_yields_key_and_range(self):
        out = list(group_slices(np.array([7, 7, 9])))
        assert out == [(7, 0, 2), (9, 2, 3)]


class TestRunLengths:
    def test_empty(self):
        keys, lengths = run_lengths(np.array([], dtype=np.int64))
        assert keys.size == 0 and lengths.size == 0

    def test_basic(self):
        keys, lengths = run_lengths(np.array([4, 4, 6, 6, 6]))
        assert keys.tolist() == [4, 6]
        assert lengths.tolist() == [2, 3]

    def test_counts_from_sorted_matches_bincount(self):
        a = np.array([0, 0, 2, 2, 2, 4])
        assert counts_from_sorted(a, 6).tolist() == [2, 0, 3, 0, 1, 0]

    def test_counts_empty_returns_zero_vector(self):
        assert counts_from_sorted(np.array([], dtype=np.int64), 3).tolist() == [
            0,
            0,
            0,
        ]


class TestUniquePairWeights:
    def test_empty(self):
        a, b, w = unique_pair_weights(np.array([]), np.array([]))
        assert a.size == b.size == w.size == 0

    def test_duplicates_summed(self):
        a = np.array([1, 1, 2, 1])
        b = np.array([3, 3, 4, 3])
        ua, ub, w = unique_pair_weights(a, b)
        assert ua.tolist() == [1, 2]
        assert ub.tolist() == [3, 4]
        assert w.tolist() == [3, 1]

    def test_explicit_weights(self):
        ua, ub, w = unique_pair_weights(
            np.array([0, 0]), np.array([1, 1]), np.array([10, 5])
        )
        assert w.tolist() == [15]

    def test_output_lexicographically_sorted(self):
        ua, ub, _ = unique_pair_weights(
            np.array([2, 1, 2]), np.array([0, 5, 0])
        )
        assert list(zip(ua.tolist(), ub.tolist())) == [(1, 5), (2, 0)]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            unique_pair_weights(np.array([1]), np.array([1, 2]))

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            unique_pair_weights(np.array([1]), np.array([2]), np.array([1, 2]))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20), st.integers(0, 20), st.integers(1, 5)
            ),
            max_size=60,
        )
    )
    def test_matches_dict_accumulation(self, rows):
        expected: dict[tuple[int, int], int] = {}
        for x, y, w in rows:
            expected[(x, y)] = expected.get((x, y), 0) + w
        a = np.array([r[0] for r in rows], dtype=np.int64)
        b = np.array([r[1] for r in rows], dtype=np.int64)
        w = np.array([r[2] for r in rows], dtype=np.int64)
        ua, ub, uw = unique_pair_weights(a, b, w)
        got = dict(zip(zip(ua.tolist(), ub.tolist()), uw.tolist()))
        assert got == expected
