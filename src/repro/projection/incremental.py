"""Incremental projection — per-comment co-occurrence counts.

A monitoring deployment re-analyses the network as new comments arrive.
Algorithm 1 already says what one comment adds to the common interaction
graph: the comments on its page whose delay from it lies inside
``[δ1, δ2]``.  :class:`IncrementalProjector` applies that definition once
per comment, not once per page.  Each live page keeps

- a time-sorted ``(time, user)`` column of its live comments,
- the number of in-window co-occurrence observations per author pair,
  ``{(a, b): n_obs}`` with ``a < b``, and
- per author, the number of partners it has at least one observation
  with on the page.

An append bisects its page's column for the mates in ``[t + δ1, t + δ2]``
and ``[t − δ2, t − δ1]`` and adds one observation per mate of another
author.  When ``δ1 = 0`` an equal-time mate sits in both ranges and counts
twice, as it does in :func:`~repro.kernels.cooccur_pairs`, so
:meth:`~IncrementalProjector.raw_pair_observations` stays exact.  An
eviction is the mirror image: it subtracts an evicted comment's
observations against what is still live.  A distinct ``(page, a, b)``
triple exists while its count is positive, so ``w'`` changes exactly
where a pair count crosses between 0 and 1, and ``P'`` where a partner
count does; :class:`ProjectionDelta` collects those crossings for
:class:`repro.serve.DetectionEngine`.  Equality with a from-scratch
projection over the live corpus is asserted in tests after every update
pattern (appends, out-of-order arrivals, equal timestamps, evictions,
compaction).

Bulk loads — :meth:`~IncrementalProjector.load` (a restore) and the
rebuild inside :meth:`~IncrementalProjector.compact` — fill the counts
in one vectorized pass through :func:`~repro.kernels.cooccur_pairs`, the
batch plan's own counting kernel, merged across its batches by
:func:`~repro.kernels.merge_triples`.  Time-based eviction
(:meth:`~IncrementalProjector.evict_before`) finds its pages through a
heap of page start times, and :meth:`~IncrementalProjector.compact`
rebuilds the interners over the live corpus so steady-state memory
tracks the live window, not everything ever ingested.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.kernels import cooccur_pairs, merge_triples, pair_weights
from repro.projection.ci_graph import CommonInteractionGraph
from repro.projection.project import reduce_triples_to_ci
from repro.projection.window import TimeWindow
from repro.util.grouping import group_boundaries
from repro.util.ids import Interner
from repro.util.keys import unique_rows

__all__ = [
    "CompactionReport",
    "EvictionReport",
    "IncrementalProjector",
    "ProjectionDelta",
]


@dataclass(frozen=True)
class EvictionReport:
    """What one :meth:`IncrementalProjector.evict_before` call removed.

    Attributes
    ----------
    cutoff:
        Comments with ``created_utc < cutoff`` were dropped.
    evicted:
        One ``(user_id, page_id)`` per evicted comment (multiplicity
        preserved — a user's three old comments on a page yield three
        entries), so callers tracking per-user live incidence can
        decrement exactly.
    touched_pages:
        Pages that lost at least one comment.
    removed_pages:
        The subset of ``touched_pages`` left with no comments at all.
    """

    cutoff: int
    evicted: tuple[tuple[int, int], ...]
    touched_pages: frozenset[int]
    removed_pages: frozenset[int]

    @property
    def n_evicted(self) -> int:
        """Number of comments dropped."""
        return len(self.evicted)


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one :meth:`IncrementalProjector.compact` call.

    ``user_map`` / ``page_map`` translate old ids to new ids (``-1`` for
    ids whose owner no longer appears in any live comment).  Both maps
    are **monotone** on surviving ids — relative order is preserved — so
    canonical orientations (``a < b``) and sorted iteration orders remain
    valid after remapping.
    """

    users_before: int
    users_after: int
    pages_before: int
    pages_after: int
    user_map: np.ndarray
    page_map: np.ndarray

    @property
    def reclaimed_users(self) -> int:
        """Interner rows dropped from the user id space."""
        return self.users_before - self.users_after

    @property
    def reclaimed_pages(self) -> int:
        """Interner rows dropped from the page id space."""
        return self.pages_before - self.pages_after


@dataclass
class ProjectionDelta:
    """Where the updates that were handed this object changed ``w'`` / ``P'``.

    ``pairs`` maps each user pair ``(a, b)`` (``a < b``) whose ``w'``
    moved to its value before the first move; ``users`` does the same for
    ``P'``; ``pages`` holds every page that gained or lost a comment.  A
    key whose moves cancel keeps an entry equal to the current value, so
    callers compare against :attr:`IncrementalProjector.pair_weights` /
    :attr:`IncrementalProjector.page_counts` for the net change.
    """

    pairs: dict[tuple[int, int], int] = field(default_factory=dict)
    users: dict[int, int] = field(default_factory=dict)
    pages: set[int] = field(default_factory=set)


class _Page:
    """One live page: its time-sorted column and its counts."""

    __slots__ = ("times", "users", "obs", "partners")

    def __init__(self) -> None:
        self.times: list[int] = []
        self.users: list[int] = []
        self.obs: dict[tuple[int, int], int] = {}
        self.partners: dict[int, int] = {}


class IncrementalProjector:
    """Maintains a CI graph under streaming comment arrivals.

    Parameters
    ----------
    window:
        The projection window (fixed for the projector's lifetime).
    pair_batch:
        Candidate-pair memory budget of one bulk counting pass.

    Examples
    --------
    >>> proj = IncrementalProjector(TimeWindow(0, 60))
    >>> proj.add_comments([("a", "p", 0), ("b", "p", 30)])
    1
    >>> proj.ci_graph().edges.to_dict()
    {(0, 1): 1}
    >>> proj.add_comments([("c", "p", 45)])      # two new observations
    1
    >>> sorted(proj.ci_graph().edges.to_dict()), proj.raw_pair_observations()
    ([(0, 1), (0, 2), (1, 2)], 3)
    """

    def __init__(self, window: TimeWindow, pair_batch: int = 4_000_000) -> None:
        self.window = window
        self.pair_batch = int(pair_batch)
        self._d1 = int(window.delta1)
        self._d2 = int(window.delta2)
        self.user_names = Interner()
        self.page_names = Interner()
        self._reset()

    def _reset(self) -> None:
        # Live pages in first-arrival order.
        self._pages: dict[int, _Page] = {}
        # w' ({(a, b): pages the pair co-occurs on}) and P' ({user: pages
        # with a partner}) over the live pages, nonzero entries only.
        self.pair_weights: dict[tuple[int, int], int] = {}
        self.page_counts: dict[int, int] = {}
        # Eviction index: (time, page) with time <= the page's oldest
        # live comment, for every page holding comments (stale entries
        # are skipped when popped).
        self._heap: list[tuple[int, int]] = []
        # Live comments per user, so live_users needs no walk.
        self._user_live: dict[int, int] = {}
        self._n_comments = 0
        self._n_triples = 0
        self._n_raw = 0

    # -- updates ----------------------------------------------------------------
    def add_comments(self, comments) -> int:
        """Ingest ``(author, page, created_utc)`` triples; returns the
        number of pages that received a comment."""
        delta = ProjectionDelta()
        touched: set[int] = set()
        for author, page, created in comments:
            uid = self.user_names.intern(author)
            pid = self.page_names.intern(page)
            self.insert(uid, pid, int(created), delta)
            touched.add(pid)
        return len(touched)

    def insert(self, uid: int, pid: int, t: int, delta: ProjectionDelta) -> None:
        """Add one comment by dense ids and count its in-window mates;
        the ``w'`` / ``P'`` entries it moves are recorded in *delta*."""
        page = self._pages.get(pid)
        if page is None:
            page = self._pages[pid] = _Page()
        times, users = page.times, page.users
        d1, d2 = self._d1, self._d2
        mates = users[bisect_left(times, t + d1) : bisect_right(times, t + d2)]
        mates += users[bisect_left(times, t - d2) : bisect_right(times, t - d1)]
        i = bisect_right(times, t)
        times.insert(i, t)
        users.insert(i, uid)
        if not i:
            heapq.heappush(self._heap, (t, pid))
        self._n_comments += 1
        self._user_live[uid] = self._user_live.get(uid, 0) + 1
        delta.pages.add(pid)
        if mates:
            self._observe(page, uid, mates, 1, delta)

    def _observe(
        self,
        page: _Page,
        uid: int,
        mates: list[int],
        step: int,
        delta: ProjectionDelta,
    ) -> None:
        """Add (``step=1``) or remove (``step=-1``) one observation of
        *uid* with each mate of another author.

        A pair count that crosses between 0 and 1 moves the pair's ``w'``
        and the mate's partner count (and so, at its own crossing, the
        mate's ``P'``).  Within one call a mate crosses at most once, so
        *uid* gains or loses one partner per crossing, applied once.
        """
        obs, partners = page.obs, page.partners
        weights, counts = self.pair_weights, self.page_counts
        old_weights, old_counts = delta.pairs, delta.users
        n_crossed = 0
        for v in mates:
            if v == uid:
                continue
            key = (uid, v) if uid < v else (v, uid)
            before = obs.get(key, 0)
            if before + step:
                obs[key] = before + step
                if before:
                    continue
            else:
                del obs[key]
            n_crossed += 1
            w = weights.get(key, 0)
            old_weights.setdefault(key, w)
            if w + step:
                weights[key] = w + step
            else:
                del weights[key]
            before = partners.get(v, 0)
            if before + step:
                partners[v] = before + step
                if before:
                    continue
            else:
                del partners[v]
            n = counts.get(v, 0)
            old_counts.setdefault(v, n)
            if n + step:
                counts[v] = n + step
            else:
                del counts[v]
        self._n_raw += step * (len(mates) - mates.count(uid))
        if not n_crossed:
            return
        self._n_triples += step * n_crossed
        before = partners.get(uid, 0)
        after = before + step * n_crossed
        if after:
            partners[uid] = after
            if before:
                return
        else:
            del partners[uid]
        n = counts.get(uid, 0)
        old_counts.setdefault(uid, n)
        if n + step:
            counts[uid] = n + step
        else:
            del counts[uid]

    def load(
        self,
        page_order,
        users: np.ndarray,
        pages: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Replace the live corpus with stored rows and recount it.

        ``page_order`` lists the live pages in first-arrival order (a
        page may hold no row); the rows are any permutation of the live
        comments — :meth:`live_rows` gives them in the order it stores
        them.  Rows of one page that share a timestamp keep their
        relative order, so a stored state reloads bit-for-bit.
        """
        self._reset()
        for pid in np.asarray(page_order, dtype=np.int64).tolist():
            self._pages[pid] = _Page()
        users = np.asarray(users, dtype=np.int64)
        if not users.shape[0]:
            return
        pages = np.asarray(pages, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        order = np.lexsort((times, pages))
        users, pages, times = users[order], pages[order], times[order]
        user_list, time_list = users.tolist(), times.tolist()
        for pid, start, stop in _runs(pages):
            page = self._pages[pid]
            page.users = user_list[start:stop]
            page.times = time_list[start:stop]
            heapq.heappush(self._heap, (time_list[start], pid))
        ids, counts = np.unique(users, return_counts=True)
        _add_counts(self._user_live, zip(ids.tolist(), counts.tolist()))
        self._n_comments += len(user_list)
        self._fill_counts(users, pages, times)

    def _fill_counts(
        self, users: np.ndarray, pages: np.ndarray, times: np.ndarray
    ) -> None:
        """Set the counts of pages whose whole columns are the given rows
        (sorted by ``(page, time)``) and which hold no counts yet."""
        batches = list(
            cooccur_pairs(users, pages, times, self.window, self.pair_batch)
        )
        if not batches:
            return
        tp, ta, tb, n_obs = merge_triples(batches)
        if not tp.shape[0]:
            return
        keys = list(zip(ta.tolist(), tb.tolist()))
        counts = n_obs.tolist()
        for pid, start, stop in _runs(tp):
            self._pages[pid].obs = dict(zip(keys[start:stop], counts[start:stop]))
        (pp, pu), runs, _ = unique_rows(
            (np.concatenate((tp, tp)), np.concatenate((ta, tb)))
        )
        user_list = pu.tolist()
        n_partners = np.diff(runs).tolist()
        for pid, start, stop in _runs(pp):
            self._pages[pid].partners = dict(
                zip(user_list[start:stop], n_partners[start:stop])
            )
        self._n_triples += len(keys)
        self._n_raw += int(n_obs.sum())
        # One page per triple for w', one per (page, user) row for P'.
        ua, ub, w = pair_weights(ta, tb)
        _add_counts(self.pair_weights, zip(zip(ua.tolist(), ub.tolist()), w.tolist()))
        users_with_partners, n_pages = np.unique(pu, return_counts=True)
        _add_counts(
            self.page_counts, zip(users_with_partners.tolist(), n_pages.tolist())
        )

    def _drop_live(self, users: list[int]) -> None:
        _add_counts(self._user_live, ((uid, -1) for uid in users))
        self._n_comments -= len(users)

    def remove_page(self, page) -> bool:
        """Drop a page entirely (e.g. deleted thread); returns whether it
        existed."""
        pid = self.page_names.get(page)
        if pid is None or pid not in self._pages:
            return False
        gone = self._pages.pop(pid)
        self._drop_live(gone.users)
        self._n_triples -= len(gone.obs)
        self._n_raw -= sum(gone.obs.values())
        # The page was one unit of w' per pair and of P' per user.
        _add_counts(self.pair_weights, ((key, -1) for key in gone.obs))
        _add_counts(self.page_counts, ((uid, -1) for uid in gone.partners))
        return True

    def evict_before(
        self, cutoff: int, delta: ProjectionDelta | None = None
    ) -> EvictionReport:
        """Drop every comment with ``created_utc < cutoff`` (sliding window).

        Each evicted comment's observations are subtracted against the
        comments still live (the ``w'`` / ``P'`` entries that move are
        recorded in *delta*); pages left empty are removed outright.  The interners are *not*
        shrunk here — that is :meth:`compact`'s job — so ids stay stable
        across evictions.
        """
        cutoff = int(cutoff)
        delta = delta if delta is not None else ProjectionDelta()
        heap = self._heap
        due: dict[int, None] = {}
        while heap and heap[0][0] < cutoff:
            due[heapq.heappop(heap)[1]] = None
        d1, d2 = self._d1, self._d2
        evicted: list[tuple[int, int]] = []
        touched: set[int] = set()
        removed: set[int] = set()
        for pid in due:
            page = self._pages.get(pid)
            if page is None:
                continue
            times, users = page.times, page.users
            k = bisect_left(times, cutoff)
            for i in range(k):
                # Mates among the rows after i: rows before it are gone.
                t, uid, nxt = times[i], users[i], i + 1
                mates = users[
                    max(nxt, bisect_left(times, t + d1)) : bisect_right(times, t + d2)
                ]
                mates += users[
                    max(nxt, bisect_left(times, t - d2)) : bisect_right(times, t - d1)
                ]
                if mates:
                    self._observe(page, uid, mates, -1, delta)
                evicted.append((uid, pid))
            if k:
                self._drop_live(users[:k])
                del times[:k]
                del users[:k]
                touched.add(pid)
            if times:
                heapq.heappush(heap, (times[0], pid))
            elif k:
                del self._pages[pid]
                removed.add(pid)
        delta.pages.update(touched)
        return EvictionReport(
            cutoff=cutoff,
            evicted=tuple(evicted),
            touched_pages=frozenset(touched),
            removed_pages=frozenset(removed),
        )

    def compact(self) -> CompactionReport:
        """Rebuild both interners over the live corpus only.

        Under sustained append/evict churn the interners (and the id
        spaces every dense array is sized by, e.g. ``P'``) grow with the
        *total* number of users and pages ever seen, not the live window
        — the classic slow leak of a long-running service.  Compaction
        remaps every surviving id onto a dense ``0..n-1`` space in old-id
        order (a monotone map: relative order, and hence every canonical
        ``a < b`` orientation, is preserved), drops dead rows and recounts
        the live corpus in one vectorized pass.

        Callers holding id-keyed state of their own must remap it with
        the returned :class:`CompactionReport` maps (or rebuild from the
        projector, as :class:`repro.serve.DetectionEngine` does).
        """
        users_before = len(self.user_names)
        pages_before = len(self.page_names)
        live_uids = sorted(self._user_live)
        live_pids = sorted(self._pages)

        user_map = np.full(users_before, -1, dtype=np.int64)
        user_map[live_uids] = np.arange(len(live_uids), dtype=np.int64)
        page_map = np.full(pages_before, -1, dtype=np.int64)
        page_map[live_pids] = np.arange(len(live_pids), dtype=np.int64)

        self.user_names = Interner(
            self.user_names.key_of(old) for old in live_uids
        )
        self.page_names = Interner(
            self.page_names.key_of(old) for old in live_pids
        )
        page_order, users, pages, times = self.live_rows()
        self.load(page_map[page_order], user_map[users], page_map[pages], times)
        return CompactionReport(
            users_before=users_before,
            users_after=len(self.user_names),
            pages_before=pages_before,
            pages_after=len(self.page_names),
            user_map=user_map,
            page_map=page_map,
        )

    # -- reads ----------------------------------------------------------------------
    def raw_pair_observations(self) -> int:
        """Total raw in-window pair observations across live pages —
        the same count :func:`repro.projection.project.project` reports
        as ``stats["pair_observations"]``."""
        return self._n_raw

    def ci_graph(self) -> CommonInteractionGraph:
        """The current common interaction graph (reduced from the counts)."""
        pages = list(self._pages.values())
        sizes = np.fromiter((len(p.obs) for p in pages), np.int64, len(pages))
        pg = np.repeat(np.fromiter(self._pages, np.int64, len(pages)), sizes)
        ab = np.fromiter(
            chain.from_iterable(chain.from_iterable(p.obs for p in pages)),
            np.int64,
            2 * self._n_triples,
        ).reshape(-1, 2)
        return reduce_triples_to_ci(
            pg,
            ab[:, 0].copy(),
            ab[:, 1].copy(),
            len(self.user_names),
            self.window,
            self.user_names,
        )

    def live_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(page_order, users, pages, times)`` of the live corpus.

        ``page_order`` is the live pages in first-arrival order; the
        rows follow it page by page, each page's rows in time order
        (arrival order among equal timestamps).
        """
        records = list(self._pages.values())
        n = self._n_comments
        sizes = np.fromiter((len(p.times) for p in records), np.int64, len(records))
        page_order = np.fromiter(self._pages, np.int64, len(records))
        users = np.fromiter(
            chain.from_iterable(p.users for p in records), np.int64, n
        )
        times = np.fromiter(
            chain.from_iterable(p.times for p in records), np.int64, n
        )
        return page_order, users, np.repeat(page_order, sizes), times

    def to_btm(self) -> BipartiteTemporalMultigraph:
        """The live corpus as a BTM (for Steps 2–3 / oracles)."""
        _order, users, pages, times = self.live_rows()
        return BipartiteTemporalMultigraph(
            users, pages, times, self.user_names, self.page_names
        )

    def memory_stats(self) -> dict[str, int]:
        """Live-vs-interned accounting for leak detection.

        ``interned_users - live_users`` (and the page analogue) is the
        churn debt compaction would reclaim; the regression tests assert
        it stays bounded under long append/evict cycles when compaction
        runs.  Every figure is a maintained counter, so this is O(1).
        """
        return {
            "interned_users": len(self.user_names),
            "live_users": len(self._user_live),
            "interned_pages": len(self.page_names),
            "live_pages": len(self._pages),
            "comments": self._n_comments,
            "triple_rows": self._n_triples,
        }

    @property
    def n_pages(self) -> int:
        """Live pages."""
        return len(self._pages)

    @property
    def n_comments(self) -> int:
        """Live comments."""
        return self._n_comments


def _add_counts(counts: dict, items) -> None:
    """Add *n* to ``counts[key]`` per ``(key, n)`` of *items*, dropping
    entries that reach zero (a negative *n* must meet a live entry)."""
    if not counts:
        counts.update(items)
        return
    for key, n in items:
        n = counts.get(key, 0) + n
        if n:
            counts[key] = n
        else:
            del counts[key]


def _runs(keys: np.ndarray):
    """``(key, start, stop)`` of each equal-key run of a grouped array."""
    bounds = group_boundaries(keys).tolist()
    return zip(keys[bounds[:-1]].tolist(), bounds, bounds[1:])

