"""Tests for owner functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ygm.partition import HashPartitioner


class TestHashPartitioner:
    def test_owner_in_range(self):
        p = HashPartitioner(7)
        assert all(0 <= p.owner(k) < 7 for k in range(200))

    def test_deterministic_across_instances(self):
        a, b = HashPartitioner(5), HashPartitioner(5)
        assert [a.owner(i) for i in range(50)] == [b.owner(i) for i in range(50)]

    def test_string_keys(self):
        p = HashPartitioner(4)
        assert 0 <= p.owner("alice") < 4
        assert p.owner("alice") == HashPartitioner(4).owner("alice")

    def test_tuple_keys(self):
        p = HashPartitioner(4)
        assert p.owner((3, 9)) == p.owner((3, 9))
        # order matters for tuples
        spread = {p.owner((i, j)) for i in range(6) for j in range(6)}
        assert len(spread) > 1

    def test_reasonable_balance(self):
        p = HashPartitioner(4)
        counts = np.bincount([p.owner(k) for k in range(4000)], minlength=4)
        assert counts.min() > 800  # each rank gets a fair share

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_any_int_key_valid(self, key):
        assert 0 <= HashPartitioner(3).owner(key) < 3
