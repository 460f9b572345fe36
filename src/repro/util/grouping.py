"""Vectorized group-by kernels.

The projection and triangle engines repeatedly need "for each page, the
slice of comments on that page" style iteration over *sorted* key arrays.
Doing this with Python-level ``itertools.groupby`` is an order of magnitude
slower than the numpy run-length idiom below, so it is centralized here
(per the optimization guide: find the bottleneck once, fix it once).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.util.keys import unique_rows

__all__ = [
    "group_boundaries",
    "group_slices",
    "run_lengths",
    "counts_from_sorted",
    "unique_pair_weights",
]


def group_boundaries(sorted_keys: np.ndarray) -> np.ndarray:
    """Return boundary indices of equal-key runs in a sorted key array.

    The result ``b`` has ``b[0] == 0`` and ``b[-1] == len(sorted_keys)``;
    run *i* occupies ``sorted_keys[b[i]:b[i+1]]``.  An empty input yields
    ``[0]`` (zero runs).
    """
    sorted_keys = np.asarray(sorted_keys)
    n = sorted_keys.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.concatenate(
        ([0], change, [n])
    ).astype(np.int64, copy=False)


def group_slices(sorted_keys: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """Yield ``(key, start, stop)`` for each equal-key run of a sorted array."""
    bounds = group_boundaries(sorted_keys)
    for i in range(bounds.shape[0] - 1):
        start = int(bounds[i])
        stop = int(bounds[i + 1])
        yield int(sorted_keys[start]), start, stop


def run_lengths(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(unique_keys, lengths)`` for a sorted key array."""
    bounds = group_boundaries(sorted_keys)
    if sorted_keys.shape[0] == 0:
        return (
            np.empty(0, dtype=np.asarray(sorted_keys).dtype),
            np.empty(0, dtype=np.int64),
        )
    return np.asarray(sorted_keys)[bounds[:-1]], np.diff(bounds)


def counts_from_sorted(sorted_keys: np.ndarray, domain: int) -> np.ndarray:
    """Count occurrences of each key ``0..domain-1`` in a sorted key array.

    Equivalent to ``np.bincount(sorted_keys, minlength=domain)`` but named for
    intent at call sites; keys must lie in ``[0, domain)``.
    """
    sorted_keys = np.asarray(sorted_keys)
    if sorted_keys.shape[0] == 0:
        return np.zeros(domain, dtype=np.int64)
    return np.bincount(sorted_keys, minlength=domain).astype(np.int64, copy=False)


def unique_pair_weights(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate ``(a, b)`` pairs, summing their weights.

    Parameters
    ----------
    a, b:
        Equal-length integer key arrays.
    weights:
        Optional per-pair weights; defaults to 1 per pair (so the output
        weight is the multiplicity of each distinct pair).

    Returns
    -------
    (ua, ub, w):
        Distinct pairs in lexicographic order and their accumulated weights.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError(f"key arrays differ in shape: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    if weights is None:
        (ua, ub), runs, _ = unique_rows((a, b))
        return ua, ub, runs[1:] - runs[:-1]
    weights = np.asarray(weights)
    if weights.shape[0] != n:
        raise ValueError("weights must match key arrays in length")
    (ua, ub), runs, order = unique_rows((a, b), with_order=True)
    sw = weights[order]
    # Summing weights per run via cumsum-difference keeps everything in numpy.
    csum = np.concatenate(([0], np.cumsum(sw)))
    w = csum[runs[1:]] - csum[runs[:-1]]
    return ua, ub, w.astype(sw.dtype, copy=False)
