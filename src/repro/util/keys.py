"""Overflow-safe composite int64 keys.

The hot kernels encode a pair of non-negative integers into one int64 so a
single ``searchsorted``/``argsort`` can order and join them: the projection
uses ``run_index * stride + rebased_time`` and the triangle survey uses
``tail * n + head``.  Both products silently wrap for real-world inputs —
nanosecond Unix timestamps make the stride ~1e15, and a few thousand page
runs push the key past ``2**63 - 1`` — so every encoding must be guarded.

This module centralizes the guard:

- :func:`strided_key_fits` decides (in Python's arbitrary-precision ints,
  immune to the very wraparound it detects) whether ``n_groups`` groups of
  stride ``stride`` fit in int64;
- :func:`encode_strided` / :func:`decode_strided` perform the checked
  encoding;
- :func:`compress_ids` is the fallback: an ``np.unique``-based (sort +
  dedup, i.e. lexicographic-rank) relabelling onto a dense id space small
  enough that the product always fits;
- :func:`unique_rows` sorts and dedups int rows on one packed key.

Callers check :func:`strided_key_fits` first and switch to the compressed
or per-group path instead of wrapping silently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "INT64_MAX",
    "strided_key_fits",
    "encode_strided",
    "decode_strided",
    "compress_ids",
    "unique_rows",
    "PACK_MIN_ROWS",
]

INT64_MAX = 2**63 - 1

#: Fewest rows :func:`unique_rows` packs; below it a multi-key lexsort is
#: as fast (on a 2-core x86 host the two meet between 256 and 512 rows).
PACK_MIN_ROWS = 256


def strided_key_fits(n_groups: int, stride: int) -> bool:
    """Whether keys ``group * stride + offset`` stay inside int64.

    ``group`` ranges over ``[0, n_groups)`` and ``offset`` over
    ``[0, stride)``, so the largest key is ``n_groups * stride - 1``; the
    check also leaves no headroom assumption to the caller — anything that
    adds to a key (the window's ``+ delta2`` probe) must already be inside
    the per-group stride.  Evaluated with Python ints, so it cannot itself
    overflow.
    """
    if n_groups < 0 or stride <= 0:
        raise ValueError(
            f"need n_groups >= 0 and stride > 0, got {n_groups}, {stride}"
        )
    return int(n_groups) * int(stride) <= INT64_MAX


def encode_strided(
    group: np.ndarray, stride: int, offset: np.ndarray
) -> np.ndarray:
    """Encode ``group * stride + offset`` as int64, refusing to wrap.

    Parameters
    ----------
    group:
        Non-negative group indices.
    stride:
        Per-group key-space width; every ``offset`` must be ``< stride``.
    offset:
        Non-negative within-group offsets.

    Raises
    ------
    OverflowError
        If the key space does not fit in int64 (use
        :func:`strided_key_fits` to pre-check and pick a fallback).

    Examples
    --------
    >>> encode_strided(np.array([0, 1, 2]), 100, np.array([7, 8, 9])).tolist()
    [7, 108, 209]
    """
    group = np.asarray(group, dtype=np.int64)
    offset = np.asarray(offset, dtype=np.int64)
    n_groups = int(group.max()) + 1 if group.size else 0
    if not strided_key_fits(n_groups, stride):
        raise OverflowError(
            f"strided key space {n_groups} * {stride} exceeds int64; "
            "use compress_ids or a per-group fallback"
        )
    return group * np.int64(stride) + offset


def decode_strided(key: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_strided`: return ``(group, offset)``.

    Examples
    --------
    >>> g, o = decode_strided(np.array([7, 108, 209]), 100)
    >>> g.tolist(), o.tolist()
    ([0, 1, 2], [7, 8, 9])
    """
    key = np.asarray(key, dtype=np.int64)
    if stride <= 0:
        raise ValueError(f"stride must be > 0, got {stride}")
    return key // np.int64(stride), key % np.int64(stride)


def compress_ids(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Relabel integer arrays onto the dense id space of their distinct values.

    Returns ``(values, remapped_0, remapped_1, ...)`` where ``values`` is
    the sorted distinct-value table (``values[new_id] == original_id``) and
    each ``remapped_i`` holds the new ids for ``arrays[i]``.  The mapping
    is order-preserving (``a < b`` iff ``new(a) < new(b)``), so canonical
    orderings survive a round trip through the compressed space.

    Examples
    --------
    >>> values, a, b = compress_ids(
    ...     np.array([10**15, 5]), np.array([5, 7])
    ... )
    >>> values.tolist(), a.tolist(), b.tolist()
    ([5, 7, 1000000000000000], [2, 0], [0, 1])
    """
    if not arrays:
        raise ValueError("compress_ids needs at least one array")
    lengths = [np.asarray(a).shape[0] for a in arrays]
    concat = np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays])
    values, inverse = np.unique(concat, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False)
    out: list[np.ndarray] = []
    start = 0
    for length in lengths:
        out.append(inverse[start : start + length])
        start += length
    return (values, *out)


def unique_rows(
    cols: tuple[np.ndarray, ...],
    *,
    sorted_first: bool = False,
    with_order: bool = False,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray | None]:
    """Distinct rows of two or three int columns, first column primary.

    Returns the distinct rows in lexicographic order, run boundaries
    (distinct row ``i`` occupies sorted positions ``runs[i]:runs[i+1]``)
    and, with ``with_order``, the stable permutation ``np.lexsort``
    gives.  Each row packs into one mixed-radix int64 key and one
    single-key sort orders them.  A column spans ``0..OR of its values``
    — or, with ``sorted_first``, the first column spans its two ends, so
    rows of one page pack as ``a * n + b``.  Negative ids, keys that
    would wrap (:func:`strided_key_fits`) and inputs under
    :data:`PACK_MIN_ROWS` rows take the exact ``np.lexsort`` — the
    package's one row-sort fallback.

    >>> (a, b), runs, _ = unique_rows((np.array([2, 1, 2]), np.array([5, 9, 5])))
    >>> a.tolist(), b.tolist(), runs.tolist()
    ([1, 2], [9, 5], [0, 1, 3])
    """
    cols = [np.asarray(c, dtype=np.int64) for c in cols]
    n = cols[0].shape[0]
    runs = np.empty(n + 1, dtype=bool)
    runs[0] = runs[n] = True
    packed = False
    if n and n >= PACK_MIN_ROWS:
        # OR >= every value of a non-negative column; a negative one gets span < 1.
        bounds = [(0, int(np.bitwise_or.reduce(c))) for c in cols]
        if sorted_first:
            bounds[0] = (int(cols[0][0]), int(cols[0][-1]))
        spans = [hi - lo + 1 for lo, hi in bounds]
        packed = min(spans) >= 1 and strided_key_fits(spans[0], math.prod(spans[1:]))
    if not packed:
        order = np.lexsort(cols[::-1])
        srt = [c[order] for c in cols]
        new = srt[0][1:] != srt[0][:-1]
        for s in srt[1:]:
            new |= s[1:] != s[:-1]
        runs[1:n] = new
        runs = runs.nonzero()[0]
        return tuple(s[runs[:-1]] for s in srt), runs, order if with_order else None
    varying = [i for i, span in enumerate(spans) if span > 1] or [0]
    key = cols[varying[0]] - bounds[varying[0]][0]  # fresh, so updated in place
    for i in varying[1:]:
        key *= spans[i]
        key += cols[i] - bounds[i][0] if bounds[i][0] else cols[i]
    order = None
    if with_order:
        order = np.argsort(key, kind="stable")
        key = key[order]
    else:
        key.sort()
    np.not_equal(key[1:], key[:-1], out=runs[1:n])
    runs = runs.nonzero()[0]
    rest, rows = key[runs[:-1]], []
    for i in range(len(cols) - 1, -1, -1):
        lo = bounds[i][0]
        if i in varying[1:]:
            rest, digit = np.divmod(rest, spans[i])
        else:  # the leading digit, or a constant column
            digit = rest if i == varying[0] else np.zeros_like(rest)
        rows.append(digit + lo if lo else digit)
    return tuple(rows[::-1]), runs, order
