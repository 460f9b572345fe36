"""Hyperedge-weight kernels over the user–page incidence (eq. 2).

``w_xyz`` counts the pages all three authors of a triplet comment on.
The incidence arrives CSR-style (``indptr`` + per-user sorted distinct
``page_ids``); :func:`hyperedge_count` evaluates *every* candidate
triplet at once instead of the per-triangle Python loop the serial
evaluator used to carry, on one of two paths:

- **bitset** — each distinct triplet user becomes one row of packed
  ``uint64`` page bits over only the pages enough of those users hold
  to count (3, or 1 when some triplet repeats a user), and
  ``w = popcount(bits[a] & bits[b] & bits[c])``.  ``bits[a] & bits[b]``
  is formed once per run of consecutive triplets sharing ``(a, b)``
  (``sorted_canonical`` order makes those runs long), in blocks of
  :data:`BITSET_BLOCK_WORDS` words so the temporaries stay bounded.
- **probe** — per triplet, the author with the smallest page slice
  probes the other two: all probe pages are flattened with the
  repeat/arange idiom, membership-tested with one ``searchsorted`` each
  into the *global* sorted ``user * stride + page`` key array (the
  incidence is already sorted by user then page, so no re-sort is
  needed) and counted back per triplet.  The strided key is guarded by
  :func:`repro.util.keys.strided_key_fits`; when ``n_users * stride``
  would wrap int64, this path falls back to the per-triplet
  sorted-intersection reference instead of wrapping.

The bitset path runs when its ``n_trip * n_words`` words cost less than
the probe path's ``Σ min slice`` probes, weighted by
:data:`BITSET_WORDS_PER_PROBE`, and its bit matrix is no larger than the
probe path's key array plus one word per probe.  The pipeline's
canonical-order triangles take it; the probe path is the fallback for
wide rows over short slices (hub authors) and oversized bit matrices.
"""

from __future__ import annotations

import numpy as np

from repro.util.keys import strided_key_fits

__all__ = [
    "hyperedge_count",
    "hyperedge_count_reference",
    "intersect3_sorted",
]

#: Packed words of the bitset path that cost as much as one probe (2-core
#: x86 host): 33 at the margin on batch-dense's page layer (3.4 ns a word,
#: 112 ns a probe), 21-27 on the kernel bench's hub rows and 9-28 on
#: random triplets, whose ``(a, b)`` runs are short.  Every call of the
#: batch workloads sits at 2.4 words per probe or less.
BITSET_WORDS_PER_PROBE = 24

#: Words per temporary in one bitset block: 512 KiB, which stays in L2.
BITSET_BLOCK_WORDS = 1 << 16


def intersect3_sorted(
    px: np.ndarray, py: np.ndarray, pz: np.ndarray
) -> np.ndarray:
    """Sorted intersection of three sorted unique id arrays.

    Intersects the two smallest first — the cheap algorithmic win the
    optimization guide prescribes (compute less before computing fast).
    """
    slices = sorted((px, py, pz), key=len)
    first = np.intersect1d(slices[0], slices[1], assume_unique=True)
    if first.shape[0] == 0:
        return first
    return np.intersect1d(first, slices[2], assume_unique=True)


def hyperedge_count(
    indptr: np.ndarray,
    page_ids: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """``w_xyz`` (eq. 2) for every triplet ``(a[i], b[i], c[i])`` at once.

    ``indptr`` / ``page_ids`` are the CSR incidence (per-user sorted
    distinct pages); the result is an int64 array aligned to the triplet
    arrays.  The path is picked from the input's sizes (module docstring).
    """
    indptr, page_ids, a, b, c = (
        np.asarray(x, dtype=np.int64) for x in (indptr, page_ids, a, b, c)
    )
    size = np.diff(indptr)
    probes = int(np.minimum(np.minimum(size[a], size[b]), size[c]).sum())
    cols = _page_columns(indptr, page_ids, a, b, c)
    n_rows, n_words = cols[1].shape[0], cols[-1]
    if (
        a.shape[0] * n_words < BITSET_WORDS_PER_PROBE * probes
        and n_rows * n_words <= page_ids.shape[0] + probes
    ):
        return _count_bits(a, b, c, *cols)
    del cols  # the probe path's temporaries peak without them
    return _probe_path(indptr, page_ids, a, b, c)


def _page_columns(indptr, page_ids, a, b, c):
    """The bitset path's rows and columns, counted before it is picked:
    ``row_of`` (user → row), ``counts`` (incidences per row), ``key``
    (each incidence's index into ``live``), ``live`` (pages at least 3
    rows hold, or 1 when a triplet repeats a user: ``(x, x, y)`` counts
    the pages ``x`` shares with ``y``) and the word count.  Dense page
    ids are counted by id, wide ones by a sort."""
    present = np.zeros(indptr.shape[0] - 1, dtype=bool)
    for x in (a, b, c):
        present[x] = True
    users = np.flatnonzero(present)
    row_of = np.empty(present.shape[0], dtype=np.int64)
    row_of[users] = np.arange(users.shape[0])
    size = np.diff(indptr)
    counts, pages = size[users], page_ids[np.repeat(present, size)]
    if pages.shape[0] and 0 <= pages.min() and pages.max() < 4 * pages.shape[0]:
        key, held = pages, np.bincount(pages)
    else:
        _, key, held = np.unique(pages, return_inverse=True, return_counts=True)
    live = held >= (1 if ((a == b) | (b == c) | (a == c)).any() else 3)
    return row_of, counts, key, live, -(-int(np.count_nonzero(live)) // 64)


def _count_bits(a, b, c, row_of, counts, key, live, n_words):
    """The bitset path over :func:`_page_columns`."""
    keep = live[key]
    set_row = np.repeat(np.arange(counts.shape[0]), counts)[keep]
    set_col = (np.cumsum(live) - 1)[key[keep]]
    bits = np.zeros((counts.shape[0], n_words), dtype=np.uint64)
    bit = np.uint64(1) << (set_col & 63).astype(np.uint64)
    np.bitwise_or.at(bits.reshape(-1), set_row * n_words + (set_col >> 6), bit)
    del keep, set_row, set_col, bit
    w = np.empty(a.shape[0], dtype=np.int64)
    step = max(1, BITSET_BLOCK_WORDS // max(n_words, 1))
    for lo in range(0, w.shape[0], step):
        ra, rb, rc = (row_of[x[lo : lo + step]] for x in (a, b, c))
        # bits[a] & bits[b] once per run of triplets sharing (a, b).
        new_run = np.ones(ra.shape[0], dtype=bool)
        new_run[1:] = (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])
        heads = np.flatnonzero(new_run)
        both = (bits[ra[heads]] & bits[rb[heads]])[np.cumsum(new_run) - 1]
        both &= bits[rc]
        w[lo : lo + step] = np.bitwise_count(both).sum(axis=1)
    return w


def _bitset_path(indptr, page_ids, a, b, c):
    """:func:`hyperedge_count` forced onto the bitset path."""
    indptr, page_ids, a, b, c = (
        np.asarray(x, dtype=np.int64) for x in (indptr, page_ids, a, b, c)
    )
    return _count_bits(a, b, c, *_page_columns(indptr, page_ids, a, b, c))


def _probe_path(indptr, page_ids, a, b, c):
    """:func:`hyperedge_count` forced onto the probe path."""
    indptr = np.asarray(indptr, dtype=np.int64)
    page_ids = np.asarray(page_ids, dtype=np.int64)
    n_trip = a.shape[0]
    if n_trip == 0:
        return np.empty(0, dtype=np.int64)
    n_users = indptr.shape[0] - 1
    stride = int(page_ids.max()) + 1 if page_ids.shape[0] else 1
    if not strided_key_fits(max(n_users, 1), stride):
        return hyperedge_count_reference(indptr, page_ids, a, b, c)
    # Global sorted membership keys: incidence rows are sorted by user,
    # then page, so user * stride + page is already ascending.
    keys = (
        np.repeat(np.arange(n_users, dtype=np.int64), np.diff(indptr)) * stride
        + page_ids
    )

    trips = np.stack([np.asarray(x, dtype=np.int64) for x in (a, b, c)], axis=1)
    sizes = indptr[trips + 1] - indptr[trips]
    # Probe with each triplet's smallest slice; test the other two.
    probe_col = np.argmin(sizes, axis=1)
    rows = np.arange(n_trip)
    probe_user = trips[rows, probe_col]
    others = np.stack(
        [
            trips[rows, (probe_col + 1) % 3],
            trips[rows, (probe_col + 2) % 3],
        ],
        axis=1,
    )

    probe_sizes = sizes[rows, probe_col]
    total = int(probe_sizes.sum())
    if total == 0:
        return np.zeros(n_trip, dtype=np.int64)
    trip_of = np.repeat(rows, probe_sizes)
    starts = indptr[probe_user]
    offsets = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.concatenate(([0], np.cumsum(probe_sizes)))[:-1], probe_sizes)
    )
    probe_pages = page_ids[starts[trip_of] + offsets]

    hit = np.ones(total, dtype=bool)
    for k in (0, 1):
        want = others[trip_of, k] * stride + probe_pages
        pos = np.searchsorted(keys, want)
        pos = np.minimum(pos, keys.shape[0] - 1)
        hit &= keys[pos] == want
    return np.bincount(trip_of[hit], minlength=n_trip)


def hyperedge_count_reference(
    indptr: np.ndarray,
    page_ids: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """Per-triplet sorted-intersection twin of :func:`hyperedge_count`."""
    indptr = np.asarray(indptr, dtype=np.int64)
    page_ids = np.asarray(page_ids, dtype=np.int64)

    def pages_of(user: int) -> np.ndarray:
        return page_ids[indptr[user] : indptr[user + 1]]

    n_trip = a.shape[0]
    w = np.zeros(n_trip, dtype=np.int64)
    for i in range(n_trip):
        w[i] = intersect3_sorted(
            pages_of(int(a[i])), pages_of(int(b[i])), pages_of(int(c[i]))
        ).shape[0]
    return w
