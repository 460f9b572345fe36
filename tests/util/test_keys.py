"""Tests for the overflow-safe composite key helpers."""

import numpy as np
import pytest

from repro.util.keys import (
    INT64_MAX,
    PACK_MIN_ROWS,
    compress_ids,
    decode_strided,
    encode_strided,
    strided_key_fits,
    unique_rows,
)


class TestStridedKeyFits:
    def test_small_key_space_fits(self):
        assert strided_key_fits(1000, 1000)

    def test_exact_boundary(self):
        assert strided_key_fits(1, INT64_MAX)
        assert not strided_key_fits(1, INT64_MAX + 1)

    def test_ns_timestamp_scale_overflows(self):
        # A year of nanoseconds as stride over a few thousand pages.
        year_ns = 365 * 24 * 3600 * 10**9
        assert not strided_key_fits(4000, year_ns)

    def test_python_int_arithmetic_no_wrap(self):
        # The check itself must not wrap: these products exceed 2**64.
        assert not strided_key_fits(2**40, 2**40)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            strided_key_fits(-1, 10)
        with pytest.raises(ValueError):
            strided_key_fits(10, 0)


class TestEncodeDecode:
    def test_roundtrip(self):
        group = np.array([0, 3, 7, 7], dtype=np.int64)
        offset = np.array([5, 0, 99, 100], dtype=np.int64)
        key = encode_strided(group, 101, offset)
        g, o = decode_strided(key, 101)
        assert np.array_equal(g, group) and np.array_equal(o, offset)

    def test_keys_monotone_in_group_then_offset(self):
        key = encode_strided(
            np.array([0, 0, 1, 2]), 50, np.array([0, 49, 0, 10])
        )
        assert np.all(np.diff(key) > 0)

    def test_refuses_to_wrap(self):
        big = np.array([4000], dtype=np.int64)
        with pytest.raises(OverflowError):
            encode_strided(big, 365 * 24 * 3600 * 10**9, np.array([0]))

    def test_empty(self):
        out = encode_strided(np.empty(0, np.int64), 10, np.empty(0, np.int64))
        assert out.shape == (0,)


class TestCompressIds:
    def test_order_preserving(self):
        values, a = compress_ids(np.array([10**15, 5, 7, 5]))
        assert values.tolist() == [5, 7, 10**15]
        assert a.tolist() == [2, 0, 1, 0]
        assert np.array_equal(values[a], np.array([10**15, 5, 7, 5]))

    def test_multiple_arrays_share_one_space(self):
        values, a, b = compress_ids(
            np.array([100, 200]), np.array([200, 300])
        )
        assert values.tolist() == [100, 200, 300]
        assert a.tolist() == [0, 1] and b.tolist() == [1, 2]

    def test_product_fits_after_compression(self):
        huge = np.array([INT64_MAX - 1, INT64_MAX - 2])
        values, a = compress_ids(huge)
        n = int(a.max()) + 1
        assert strided_key_fits(n, n)

    def test_requires_an_array(self):
        with pytest.raises(ValueError):
            compress_ids()


class TestUniqueRows:
    def test_primary_key_is_first_column(self):
        a = np.array([2, 1, 1])
        b = np.array([0, 9, 1])
        _rows, _runs, order = unique_rows((a, b), with_order=True)
        assert a[order].tolist() == [1, 1, 2]
        assert b[order].tolist() == [1, 9, 0]

    def test_empty_input(self):
        (a, b), runs, order = unique_rows((np.array([]), np.array([])), with_order=True)
        assert a.dtype == np.int64 and a.size == b.size == order.size == 0
        assert runs.tolist() == [0]

    def test_negative_ids_take_the_lexsort_path(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-5, 5, PACK_MIN_ROWS)
        b = rng.integers(0, 5, PACK_MIN_ROWS)
        (ua, ub), runs, order = unique_rows((a, b), with_order=True)
        assert np.array_equal(order, np.lexsort((b, a)))
        assert sorted(set(zip(a.tolist(), b.tolist()))) == list(zip(ua.tolist(), ub.tolist()))
        assert runs[-1] == PACK_MIN_ROWS
