"""Co-occurring author-pair kernels (Algorithm 1's inner loop).

:func:`cooccur_pairs` turns ``(page, time)``-sorted comment arrays into
the distinct per-page author pairs ``(page, min(x,y), max(x,y))`` whose
delay lies in the window, each with its number of in-window
observations.  It is the one Step-1 counting core: the batch plan keeps
the triples and sums the counts, the serve projector keeps the counts
per triple, and the out-of-core wrapper runs the batch plan.
:func:`cooccur_pairs_reference` is the paper's per-page double loop (the
former body of ``project_reference``), kept as the obviously-correct
twin.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.kernels.windows import window_bounds, window_deltas
from repro.util.grouping import group_boundaries
from repro.util.keys import unique_rows

__all__ = [
    "dedup_triples",
    "cooccur_pairs",
    "cooccur_pairs_reference",
    "merge_triples",
]


def dedup_triples(
    pg: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate ``(page, a, b)`` triples (a < b assumed), sorted output."""
    return unique_rows((pg, a, b))[0]


def merge_triples(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Union sorted, distinct triple batches into one sorted dedup set.

    Parts are ``(pg, a, b)`` or ``(pg, a, b, n_obs)``, each sorted and
    distinct, as :func:`cooccur_pairs` yields; the result has the parts'
    columns, and with ``n_obs`` equal keys across seams add their
    counts.  If each seam is strictly increasing (page-aligned shards)
    the union is their concatenation; otherwise one row sort.
    """
    width = len(parts[0]) if parts else 3
    parts = [p for p in parts if p[0].shape[0]]
    if len(parts) == 1:
        return tuple(parts[0])
    empty = [np.empty(0, dtype=np.int64)]
    cols = [np.concatenate([p[i] for p in parts] or empty) for i in range(width)]
    if all(
        tuple(int(c[-1]) for c in p[:3]) < tuple(int(c[0]) for c in q[:3])
        for p, q in zip(parts, parts[1:])
    ):
        return tuple(cols)
    rows, runs, order = unique_rows(tuple(cols[:3]), with_order=width > 3)
    if width == 3:
        return rows
    return (*rows, np.add.reduceat(cols[3][order], runs[:-1]))


def cooccur_pairs(
    users: np.ndarray,
    pages: np.ndarray,
    times: np.ndarray,
    window,
    pair_batch: int,
):
    """Yield distinct ``(page, lo, hi)`` triple batches with their counts.

    Input arrays must be sorted by ``(page, time)``.  Each row's window
    is expanded at most *pair_batch* candidates at a time.  Yields
    ``(pg, a, b, n_obs)``: sorted distinct triples and each one's number
    of in-window observations (ordered comment pairs of two authors;
    equal-time mates count twice when ``delta1 == 0``), so
    ``n_obs.sum()`` is the batch's raw pair count.  A page may straddle
    batches, so a triple may repeat across them; :func:`merge_triples`
    unions the batches and adds such counts.
    """
    n = users.shape[0]
    if n == 0:
        return
    lo, hi = window_bounds(pages, times, window)
    counts = hi - lo
    # Comment i itself sits inside its own window iff delta1 == 0; the
    # row/col mask below removes it, so counts here are upper bounds only.
    cum = np.concatenate(([0], np.cumsum(counts)))
    start_row = 0
    while start_row < n:
        # Grow the row range until the candidate-pair budget is hit.
        stop_row = int(
            np.searchsorted(cum, cum[start_row] + max(pair_batch, 1), side="left")
        )
        stop_row = max(stop_row, start_row + 1)
        stop_row = min(stop_row, n)
        batch_counts = counts[start_row:stop_row]
        batch_total = int(cum[stop_row] - cum[start_row])
        if batch_total == 0:
            start_row = stop_row
            continue
        rows = np.repeat(
            np.arange(start_row, stop_row, dtype=np.int64), batch_counts
        )
        # Built in place and dropped early to bound the batch's peak.
        cols = np.arange(batch_total, dtype=np.int64)
        cols -= np.repeat(cum[start_row:stop_row] - cum[start_row], batch_counts)
        cols += lo[rows]
        ux, uy = users[rows], users[cols]
        mask = (cols != rows) & (ux != uy)
        del cols
        pgc = pages[rows[mask]]
        del rows
        ux, uy = ux[mask], uy[mask]
        a = np.minimum(ux, uy)
        b = np.maximum(ux, uy, out=uy)
        del ux
        rows, runs, _ = unique_rows((pgc, a, b), sorted_first=True)
        yield (*rows, np.diff(runs))
        start_row = stop_row


def cooccur_pairs_reference(
    users: np.ndarray,
    pages: np.ndarray,
    times: np.ndarray,
    window,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-page double-loop twin of :func:`cooccur_pairs` (Algorithm 1).

    Same input contract (sorted by ``(page, time)``); returns the fully
    deduplicated sorted triples and their observation counts in one shot
    instead of batches.
    """
    delta1, delta2 = window_deltas(window)
    tally: Counter[tuple[int, int, int]] = Counter()
    bounds = group_boundaries(pages)
    for r in range(bounds.shape[0] - 1):
        start, stop = int(bounds[r]), int(bounds[r + 1])
        page = int(pages[start])
        for i in range(start, stop):
            for j in range(start, stop):
                if j == i:
                    continue
                dt = int(times[j]) - int(times[i])
                if dt < 0:
                    continue
                x, y = int(users[i]), int(users[j])
                if delta1 <= dt <= delta2 and x != y:
                    tally[(page, min(x, y), max(x, y))] += 1
    if not tally:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    keys = sorted(tally)
    arr = np.asarray(keys, dtype=np.int64)
    n_obs = np.asarray([tally[k] for k in keys], dtype=np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2], n_obs
