"""Step 3's memory ceiling, pinned per triplet.

Validation counts ``w_xyz`` for every triangle that survives Step 2, so
its peak grows with the triplet count.  This test runs
:func:`repro.hypergraph.evaluate_triplets` under ``tracemalloc`` (numpy
reports its array buffers there) on a dense synthetic clique, where every
author holds 40 pages and the smallest slice of a triplet is 40 probes,
and bounds the peak bytes per triplet.  The packed page bitsets, counted
in fixed-size blocks, hold it near 51 B; the bound fails the probe path
that flattens every probe page of every triplet at once (about 2.1 kB on
the same input).
"""

import tracemalloc
from itertools import combinations

import numpy as np

from repro.hypergraph import UserPageIncidence, evaluate_triplets
from repro.tripoll.survey import TriangleSet

#: Peak traced bytes per triplet ``evaluate_triplets`` may hold.
MAX_BYTES_PER_TRIPLET = 300


def dense_clique(n_users=60, n_pages=400, per_user=40, seed=2023):
    """Every triplet of 60 authors (34 220) over 40 random pages each."""
    rng = np.random.default_rng(seed)
    pages = np.sort(
        [rng.choice(n_pages, per_user, replace=False) for _ in range(n_users)], axis=1
    )
    indptr = np.arange(n_users + 1, dtype=np.int64) * per_user
    inc = UserPageIncidence(indptr, pages.reshape(-1), n_users)
    trips = np.asarray(list(combinations(range(n_users), 3)), dtype=np.int64)
    a, b, c = (np.ascontiguousarray(col) for col in trips.T)
    ones = np.ones_like(a)
    return inc, TriangleSet(a, b, c, ones, ones, ones)


def test_peak_bytes_per_triplet_is_bounded():
    inc, triangles = dense_clique()
    tracemalloc.start()
    try:
        metrics = evaluate_triplets(inc, triangles)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = metrics.n_triplets
    assert n == 34_220
    per_triplet = peak / n
    assert per_triplet < MAX_BYTES_PER_TRIPLET, (
        f"evaluate_triplets() peaked at {peak / 2**20:.1f} MiB = "
        f"{per_triplet:.0f} B per triplet ({n} triplets)"
    )
