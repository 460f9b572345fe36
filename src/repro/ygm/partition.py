"""Owner function: which rank owns a key.

YGM containers distribute entries by hashing keys to ranks.  The
partitioner is deterministic and backend-independent, so the serial and
multiprocessing backends place every key identically — a property the
cross-backend equivalence tests rely on.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

__all__ = ["HashPartitioner"]

# splitmix64 constants — a fast, well-mixed integer hash (public domain).
_SM64_1 = np.uint64(0x9E3779B97F4A7C15)
_SM64_2 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_3 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    with np.errstate(over="ignore"):
        z = x + _SM64_1
        z = (z ^ (z >> np.uint64(30))) * _SM64_2
        z = (z ^ (z >> np.uint64(27))) * _SM64_3
        return z ^ (z >> np.uint64(31))


class HashPartitioner:
    """Assigns keys to ranks by a stable hash.

    Integer keys (including numpy integers) are mixed with splitmix64 so
    that consecutive vertex ids spread across ranks; other hashable keys
    fall back to a stable string-bytes fold (Python's salted ``hash`` would
    differ between worker processes).
    """

    __slots__ = ("n_ranks",)

    def __init__(self, n_ranks: int) -> None:
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be positive, got {n_ranks}")
        self.n_ranks = int(n_ranks)

    def owner(self, key: Hashable) -> int:
        """Rank owning *key*."""
        if isinstance(key, (int, np.integer)):
            mixed = _splitmix64(np.uint64(np.int64(key)).reshape(1))[0]
            return int(mixed % np.uint64(self.n_ranks))
        if isinstance(key, tuple):
            acc = np.uint64(0)
            with np.errstate(over="ignore"):
                for part in key:
                    sub = self.owner(part)
                    acc = _splitmix64(
                        (acc * np.uint64(1000003) + np.uint64(sub + 1)).reshape(1)
                    )[0]
            return int(acc % np.uint64(self.n_ranks))
        data = repr(key).encode("utf-8")
        acc = np.uint64(1469598103934665603)
        with np.errstate(over="ignore"):
            for byte in data:
                acc = (acc ^ np.uint64(byte)) * np.uint64(1099511628211)
        return int(acc % np.uint64(self.n_ranks))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashPartitioner) and other.n_ranks == self.n_ranks

    def __repr__(self) -> str:  # pragma: no cover
        return f"HashPartitioner(n_ranks={self.n_ranks})"
