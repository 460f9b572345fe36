"""Pair-weight and ``P'`` page-count ledger kernels (eqs. 5–6).

Given the distinct ``(page, a, b)`` observation triples produced by
:mod:`repro.kernels.pairs`, :func:`pair_weights` folds them into edge
weights ``w'`` (eq. 5: one page = one unit of weight per pair) and
:func:`pair_ledger` counts the distinct pages touching each author
(eq. 6's ``P'`` normalizer).  Every projection variant and the exec-plan
reduce stage call these two; no engine keeps its own counting loop.
"""

from __future__ import annotations

import numpy as np

from repro.util.grouping import unique_pair_weights
from repro.util.keys import unique_rows

__all__ = [
    "pair_weights",
    "pair_weights_reference",
    "pair_ledger",
    "pair_ledger_reference",
]


def pair_weights(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``w'`` (eq. 5): fold distinct ``(page, a, b)`` triples per pair.

    Input is the pair columns of a *deduplicated* triple set; the output
    is ``(ua, ub, w)`` with one row per distinct pair and ``w`` the
    number of triples (= pages) it appeared in, lexicographically sorted.
    """
    return unique_pair_weights(a, b)


def pair_weights_reference(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dict-accumulation twin of :func:`pair_weights`."""
    weights: dict[tuple[int, int], int] = {}
    for x, y in zip(a.tolist(), b.tolist()):
        weights[(x, y)] = weights.get((x, y), 0) + 1
    if not weights:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    rows = sorted(weights.items())
    ua = np.asarray([p[0] for p, _w in rows], dtype=np.int64)
    ub = np.asarray([p[1] for p, _w in rows], dtype=np.int64)
    w = np.asarray([w for _p, w in rows], dtype=np.int64)
    return ua, ub, w


def pair_ledger(
    pg: np.ndarray, a: np.ndarray, b: np.ndarray, n_users: int
) -> np.ndarray:
    """``P'`` (eq. 6): distinct pages per author over the triple set.

    ``pg, a, b`` are *deduplicated* ``(page, lo_user, hi_user)`` triples;
    the result is a dense int64 array of length ``n_users`` counting, for
    each author, the distinct pages on which they had at least one
    in-window pair.  A user id ``>= n_users`` raises ``IndexError``.
    """
    (_pages, users), _runs, _ = unique_rows(
        (np.concatenate((pg, pg)), np.concatenate((a, b)))
    )
    page_counts = np.bincount(users, minlength=n_users)
    if page_counts.shape[0] > n_users:
        raise IndexError(f"user id {users.max()} out of range for {n_users} users")
    return page_counts


def pair_ledger_reference(
    pg: np.ndarray, a: np.ndarray, b: np.ndarray, n_users: int
) -> np.ndarray:
    """Set-of-sets twin of :func:`pair_ledger`."""
    pages_of: dict[int, set[int]] = {}
    for page, x, y in zip(pg.tolist(), a.tolist(), b.tolist()):
        pages_of.setdefault(x, set()).add(page)
        pages_of.setdefault(y, set()).add(page)
    page_counts = np.zeros(n_users, dtype=np.int64)
    for user, pages in pages_of.items():
        page_counts[user] = len(pages)
    return page_counts
