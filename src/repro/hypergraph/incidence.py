"""The deduplicated user–page incidence (the hypergraph's incidence graph).

Paper §2.4: "making the edges of the bipartite temporal multigraph B
unique, and using the result as a bipartite incidence graph … so we can
compute hyperedge metrics for author triplets."  Stored CSR-style: each
user's distinct page ids as a sorted slice, so triplet hyperedge weights
are sorted-array intersections.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.util.grouping import group_slices

__all__ = ["UserPageIncidence"]


class UserPageIncidence:
    """Per-user sorted distinct-page slices.

    Examples
    --------
    >>> btm = BipartiteTemporalMultigraph.from_comments(
    ...     [("a", "p1", 0), ("a", "p1", 5), ("a", "p2", 9), ("b", "p1", 7)]
    ... )
    >>> inc = UserPageIncidence.from_btm(btm)
    >>> inc.pages_of(0).tolist()   # repeat comment on p1 collapsed
    [0, 1]
    >>> inc.page_count(1)
    1
    """

    __slots__ = ("indptr", "page_ids", "n_users")

    def __init__(self, indptr: np.ndarray, page_ids: np.ndarray, n_users: int) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.page_ids = np.asarray(page_ids, dtype=np.int64)
        self.n_users = int(n_users)
        if self.indptr.shape[0] != self.n_users + 1:
            raise ValueError(
                f"indptr length {self.indptr.shape[0]} != n_users+1 ({self.n_users + 1})"
            )

    @classmethod
    def from_btm(cls, btm: BipartiteTemporalMultigraph) -> "UserPageIncidence":
        """Build from a BTM by deduplicating its ``(user, page)`` edges."""
        users, pages = btm.user_page_incidence()
        n_users = btm.user_id_space
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        if users.size:
            counts = np.bincount(users, minlength=n_users)
            np.cumsum(counts, out=indptr[1:])
        return cls(indptr, pages, n_users)

    def pages_of(self, user: int) -> np.ndarray:
        """Sorted distinct page ids user *user* commented on (a view)."""
        return self.page_ids[self.indptr[user] : self.indptr[user + 1]]

    def page_count(self, user: int) -> int:
        """``p_x`` (eq. 3) for one user."""
        return int(self.indptr[user + 1] - self.indptr[user])

    def page_counts(self) -> np.ndarray:
        """``p_x`` for every user id."""
        return np.diff(self.indptr)

    def pair_weight(self, x: int, y: int) -> int:
        """Number of pages both *x* and *y* comment on (pairwise analogue)."""
        return int(
            np.intersect1d(
                self.pages_of(x), self.pages_of(y), assume_unique=True
            ).shape[0]
        )

    def users_per_page(self) -> dict[int, np.ndarray]:
        """Inverse view: page id → sorted distinct user ids (brute oracles)."""
        # page_ids is user-major, so a stable sort leaves each page's
        # users ascending.
        order = np.argsort(self.page_ids, kind="stable")
        users_flat = np.repeat(
            np.arange(self.n_users, dtype=np.int64), self.page_counts()
        )
        users_sorted = users_flat[order]
        return {
            page: users_sorted[start:stop]
            for page, start, stop in group_slices(self.page_ids[order])
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UserPageIncidence(n_users={self.n_users}, "
            f"n_incidences={self.page_ids.shape[0]})"
        )
