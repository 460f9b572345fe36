"""The projection's memory ceiling, pinned per pair observation.

Step 1 materialises every in-window ``(page, x, y)`` observation, so its
peak grows with the pair volume, not the row count.  This test runs
:func:`repro.projection.project` under ``tracemalloc`` (numpy reports its
array buffers there) on a fixed synthetic corpus and bounds the peak
bytes per raw pair observation.  The packed-key row sort and the
batch's early frees hold it near 100 B; the bound fails the three
multi-key lexsorts and the un-freed batch temporaries they replaced
(about 220 B on the same input).
"""

import tracemalloc

import numpy as np

from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.projection import TimeWindow, project

#: Peak traced bytes per raw pair observation ``project()`` may hold.
MAX_BYTES_PER_OBSERVATION = 150


def dense_pages_btm(n_pages=600, per_page=100, n_users=5_000, seed=2023):
    """60k comments, 100 per page inside 10 minutes: ~570k observations
    under a 60-second window."""
    rng = np.random.default_rng(seed)
    pages = np.repeat(np.arange(n_pages, dtype=np.int64), per_page)
    users = rng.integers(0, n_users, pages.shape[0])
    times = rng.integers(0, 600, pages.shape[0])
    return BipartiteTemporalMultigraph(users, pages, times)


def test_peak_bytes_per_pair_observation_is_bounded():
    btm = dense_pages_btm()
    tracemalloc.start()
    try:
        result = project(btm, TimeWindow(0, 60))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    observations = result.stats["pair_observations"]
    assert observations >= 500_000
    per_observation = peak / observations
    assert per_observation < MAX_BYTES_PER_OBSERVATION, (
        f"project() peaked at {peak / 2**20:.1f} MiB = {per_observation:.0f} B "
        f"per pair observation ({observations} observations)"
    )
