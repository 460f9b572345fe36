"""The pipeline's canonical plans and their stage kernels.

One plan per paper step, each a thin composition of
:mod:`repro.kernels`:

- :data:`PROJECTION_PLAN` — Step 1: map :func:`project_shard` over
  page-aligned ``(users, pages, times)`` slices, reduce with
  :func:`project_reduce` into merged triples, ``w'`` pair weights, and
  the ``P'`` ledger;
- :data:`SURVEY_PLAN` — Step 2: map :func:`survey_shard` over wedge
  position ranges of a shared forward adjacency, reduce by
  concatenating the raw triangle arrays in shard order;
- :data:`VALIDATION_PLAN` — Step 3: map :func:`hyperedge_shard` over
  triplet ranges against a shared CSR incidence, reduce by
  concatenation.

Stage kernels follow the executor convention ``fn(shard, context)`` /
``fn(partials, context)`` with picklable contexts (plain dicts of
arrays and ints), so every plan runs unchanged on
:class:`~repro.exec.executors.SerialExecutor` and
:class:`~repro.exec.executors.YgmExecutor`.  The shard builders
(:func:`page_aligned_shards`, :func:`position_range_shards`,
:func:`triplet_range_shards`) are driver-side helpers producing the
matching shard lists; :func:`adaptive_shard_count` sizes those lists so
each shard carries roughly :data:`SHARD_TARGET_SECONDS` of serial work —
big enough that per-shard dispatch overhead is noise, small enough that
a pool still load-balances.
"""

from __future__ import annotations

import numpy as np

from repro.exec.plan import KernelStage, Plan
from repro.kernels import (
    close_wedges,
    cooccur_pairs,
    hyperedge_count,
    merge_triples,
    pair_ledger,
    pair_weights,
)

__all__ = [
    "PROJECTION_PLAN",
    "SURVEY_PLAN",
    "VALIDATION_PLAN",
    "SHARD_TARGET_SECONDS",
    "PROJECTION_ROWS_PER_SECOND",
    "SURVEY_WEDGES_PER_SECOND",
    "VALIDATION_TRIPLETS_PER_SECOND",
    "adaptive_shard_count",
    "project_shard",
    "project_reduce",
    "survey_shard",
    "survey_reduce",
    "hyperedge_shard",
    "hyperedge_reduce",
    "page_aligned_shards",
    "position_range_shards",
    "triplet_range_shards",
]


# ---------------------------------------------------------------------------
# Adaptive shard sizing
# ---------------------------------------------------------------------------

#: Serial work one shard should carry.  Big enough that batched dispatch
#: and the per-shard result message are amortized into the noise (each
#: costs well under a millisecond); small enough that a pool gets
#: several shards per worker to balance skew.
SHARD_TARGET_SECONDS = 0.1

#: Measured single-core throughputs of the three map kernels (dev host,
#: bench-scale inputs).  Order of magnitude is what matters: a 3×-off
#: estimate yields 30 ms or 300 ms shards, both of which still amortize
#: dispatch overhead and still load-balance.
PROJECTION_ROWS_PER_SECOND = 400_000
SURVEY_WEDGES_PER_SECOND = 2_500_000
#: :func:`hyperedge_shard` on a 2-core x86 host runs 5.1 M triplets/s on
#: batch-dense's page layer (bitset path) and 0.77 M/s on the kernel
#: bench's hub row (probe path, 8-page smallest slices); 2 M/s is within
#: 2.6x of both.
VALIDATION_TRIPLETS_PER_SECOND = 2_000_000


def adaptive_shard_count(
    n_items: int,
    n_workers: int,
    items_per_second: float,
    *,
    target_seconds: float = SHARD_TARGET_SECONDS,
    max_shards_per_worker: int = 32,
) -> int:
    """Shard count sizing each shard to ~``target_seconds`` of work.

    At least one shard per worker (an idle worker helps nobody), at most
    ``max_shards_per_worker`` per worker (beyond that, finer shards buy
    no balance but keep paying per-shard cost).  A serial executor
    (``n_workers <= 1``) always gets a single shard: splitting work that
    runs in-process only adds partial-merge overhead.

    Examples
    --------
    >>> adaptive_shard_count(1_000_000, 4, 500_000)
    20
    >>> adaptive_shard_count(1_000, 4, 500_000)  # tiny input: 1/worker
    4
    >>> adaptive_shard_count(1_000_000, 1, 500_000)  # serial: one shard
    1
    """
    n_workers = max(1, int(n_workers))
    if n_workers == 1 or n_items <= 0:
        return 1
    per_shard = max(1, int(items_per_second * target_seconds))
    by_cost = -(-int(n_items) // per_shard)
    return max(n_workers, min(by_cost, max_shards_per_worker * n_workers))


# ---------------------------------------------------------------------------
# Step 1 — projection
# ---------------------------------------------------------------------------


def project_shard(shard, context):
    """Map stage: distinct in-window triples of one page-aligned slice.

    ``shard`` is ``(users, pages, times)`` sorted by (page, time) with
    every page wholly contained; ``context`` carries ``delta1``,
    ``delta2``, and ``pair_batch``.  Returns ``(pg, a, b, raw)`` —
    shard-deduplicated triples plus the raw in-window pair count, the
    sum of :func:`~repro.kernels.cooccur_pairs`' per-triple counts.
    The out-of-core wrapper runs it on each spill partition.
    """
    users, pages, times = shard
    window = (int(context["delta1"]), int(context["delta2"]))
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    raw = 0
    for pg, a, b, n_obs in cooccur_pairs(
        users, pages, times, window, int(context["pair_batch"])
    ):
        parts.append((pg, a, b))
        raw += int(n_obs.sum())
    pg, a, b = merge_triples(parts)
    return pg, a, b, raw


def project_reduce(partials, context):
    """Reduce stage: fold shard triples into ``w'`` and the ``P'`` ledger.

    Shards hold disjoint pages in ascending order, so every seam is
    strictly increasing and the global merge is a concatenate;
    ``context["n_users"]`` sizes the dense ledger.  Returns a dict
    of arrays the engine wraps into a
    :class:`~repro.projection.ci_graph.CommonInteractionGraph`.
    """
    pg, a, b = merge_triples([(p[0], p[1], p[2]) for p in partials])
    ua, ub, w = pair_weights(a, b)
    page_counts = pair_ledger(pg, a, b, int(context["n_users"]))
    return {
        "pg": pg,
        "a": a,
        "b": b,
        "ua": ua,
        "ub": ub,
        "w": w,
        "page_counts": page_counts,
        "pair_observations": sum(int(p[3]) for p in partials),
    }


def page_aligned_shards(
    users: np.ndarray,
    pages: np.ndarray,
    times: np.ndarray,
    n_shards: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Cut (page, time)-sorted arrays into page-whole row slices.

    Target cuts are equal row counts, then snapped forward to the next
    page boundary so no page straddles two shards (the invariant
    :func:`project_shard`'s per-shard dedup relies on).
    """
    n = users.shape[0]
    if n == 0:
        return []
    n_shards = max(1, int(n_shards))
    boundary = np.concatenate(
        ([True], pages[1:] != pages[:-1])
    )  # True at each page's first row
    starts = np.flatnonzero(boundary)
    targets = (np.arange(1, n_shards) * n) // n_shards
    cut_idx = np.unique(np.searchsorted(starts, targets, side="left"))
    cut_idx = cut_idx[cut_idx < starts.shape[0]]
    cuts = [0] + [int(starts[i]) for i in cut_idx if 0 < starts[i] < n] + [n]
    cuts = sorted(set(cuts))
    return [
        (users[lo:hi], pages[lo:hi], times[lo:hi])
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


# ---------------------------------------------------------------------------
# Step 2 — triangle survey
# ---------------------------------------------------------------------------


def survey_shard(shard, context):
    """Map stage: close the wedges of one adjacency position range.

    ``shard`` is ``(start_pos, stop_pos)``; ``context`` carries the
    shared ``adj`` dict from :func:`repro.kernels.forward_adjacency`
    plus its ``counts``/``cum`` wedge prices.  Returns raw triangle
    arrays.
    """
    start_pos, stop_pos = shard
    return close_wedges(
        int(start_pos),
        int(stop_pos),
        context["counts"],
        context["cum"],
        context["adj"],
    )


def survey_reduce(partials, context):
    """Reduce stage: concatenate raw triangle batches in shard order."""
    kept = [p for p in partials if p[0].shape[0]]
    if not kept:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy(), e.copy(), e.copy(), e.copy()
    return tuple(np.concatenate([p[i] for p in kept]) for i in range(6))


def position_range_shards(
    counts: np.ndarray, cum: np.ndarray, wedge_batch: int
) -> list[tuple[int, int]]:
    """Cut adjacency positions into ranges of ≤ ``wedge_batch`` wedges."""
    m = counts.shape[0]
    shards: list[tuple[int, int]] = []
    start_pos = 0
    while start_pos < m:
        stop_pos = int(
            np.searchsorted(cum, cum[start_pos] + max(wedge_batch, 1), side="left")
        )
        stop_pos = max(stop_pos, start_pos + 1)
        stop_pos = min(stop_pos, m)
        shards.append((start_pos, stop_pos))
        start_pos = stop_pos
    return shards


# ---------------------------------------------------------------------------
# Step 3 — hypergraph validation
# ---------------------------------------------------------------------------


def hyperedge_shard(shard, context):
    """Map stage: ``w_xyz`` for one triplet range.

    ``shard`` is ``(a, b, c)`` id arrays; ``context`` carries the CSR
    incidence (``indptr``, ``page_ids``).
    """
    a, b, c = shard
    return hyperedge_count(context["indptr"], context["page_ids"], a, b, c)


def hyperedge_reduce(partials, context):
    """Reduce stage: concatenate per-range weights in shard order."""
    if not partials:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(partials)


def triplet_range_shards(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, n_shards: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Cut aligned triplet arrays into ~equal contiguous ranges."""
    n = a.shape[0]
    if n == 0:
        return []
    n_shards = max(1, min(int(n_shards), n))
    cuts = (np.arange(n_shards + 1) * n) // n_shards
    return [
        (a[lo:hi], b[lo:hi], c[lo:hi])
        for lo, hi in zip(cuts[:-1], cuts[1:])
        if hi > lo
    ]


# ---------------------------------------------------------------------------
# Plan objects
# ---------------------------------------------------------------------------

PROJECTION_PLAN = Plan(
    name="projection",
    map_stage=KernelStage(
        "windowed_pairs", "repro.exec.plans:project_shard", shard_key="page_range"
    ),
    reduce_stage=KernelStage("reduce_ci", "repro.exec.plans:project_reduce"),
)

SURVEY_PLAN = Plan(
    name="survey",
    map_stage=KernelStage(
        "close_wedges", "repro.exec.plans:survey_shard", shard_key="wedge_range"
    ),
    reduce_stage=KernelStage("concat_raw", "repro.exec.plans:survey_reduce"),
)

VALIDATION_PLAN = Plan(
    name="validation",
    map_stage=KernelStage(
        "hyperedge_count",
        "repro.exec.plans:hyperedge_shard",
        shard_key="triplet_range",
    ),
    reduce_stage=KernelStage("concat_w", "repro.exec.plans:hyperedge_reduce"),
)


# -- doctest helpers (see repro.exec.plan.Plan) ------------------------------


def _demo_square(shard, context):
    return shard * shard


def _demo_sum(partials, context):
    return sum(partials)
