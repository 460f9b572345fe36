"""The stateful online detection engine (sliding window, dirty-set rescoring).

:class:`DetectionEngine` keeps the paper's three-step pipeline *alive*
over a sliding window of comments instead of re-running it per batch:

- **Step 1 is per-comment incremental** — appends and time-based
  evictions route through
  :class:`~repro.projection.incremental.IncrementalProjector`, which
  counts each comment's in-window mates on its page (Algorithm 1 applied
  to one comment) and moves the ``w'`` edge weights and the ``P'``
  ledger wherever a pair count crosses between 0 and 1.  Those two
  ledgers are the engine's own; the
  :class:`~repro.projection.incremental.ProjectionDelta` of a batch names
  the entries that moved, so the common interaction graph is never
  rebuilt from scratch and no page is reprojected.
- **Steps 2–3 become dirty-set maintenance** — the pairs whose ``w'``
  actually changed in a batch (the *dirty edges*) are the only places
  the thresholded graph, and therefore its triangle set, can change.
  Triangles incident to a dirty edge are removed/added/re-weighted via
  common-neighbor closure on the thresholded adjacency; scores
  (``T`` of eq. 7, ``w_xyz``/``C`` of eqs. 2–4) are recomputed only for
  triangles touching a dirty edge or a *dirty user* (one whose ``P'``
  or live page set changed), found through the per-user triangle index.
  Per-batch cost is proportional to the batch's in-window observations
  and the dirty set, not to the live graph.

**Exactness contract.**  After *any* interleaving of appends,
out-of-order arrivals, and evictions, every query answer equals a
from-scratch :class:`~repro.pipeline.framework.CoordinationPipeline`
run over exactly the live (admitted, unevicted) comments.  The
contract is enforced by :func:`repro.verify.online.run_online_parity`
and the randomized property tests; nothing here is approximate.

Admission mirrors the watermark semantics of
:class:`~repro.serve.ingest.WatermarkTracker`: once
:meth:`DetectionEngine.advance` has moved the eviction cutoff, an
arriving comment older than the cutoff is dropped (counted as late) —
its window has already been evicted and answered for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.graph.components import named_components
from repro.graph.filters import FilterReport
from repro.hypergraph.triplets import TripletMetrics
from repro.kernels import normalized_score_scalar
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import component_reports
from repro.pipeline.results import PipelineResult
from repro.projection.incremental import IncrementalProjector, ProjectionDelta
from repro.serve.metrics import ServiceMetrics
from repro.tripoll.survey import TriangleSet

__all__ = ["BatchReport", "DetectionEngine", "ScoringCore"]

#: A user/page key of a :class:`ScoringCore`: hashable and totally
#: ordered (dense interner ids in the engine, names in the aggregate).
_Key = Any
_TriKey = tuple[Any, Any, Any]


@dataclass(frozen=True)
class BatchReport:
    """What one engine update (ingest batch and/or window advance) did.

    The dirty-set sizes are the engine's own incrementality evidence:
    the serve benchmark asserts per-batch update cost tracks
    ``dirty_edges`` / ``rescored_triangles``, not the live graph size.
    """

    n_appended: int
    n_filtered: int
    n_late_dropped: int
    n_evicted: int
    touched_pages: int
    dirty_edges: int
    dirty_users: int
    triangles_added: int
    triangles_removed: int
    rescored_triangles: int

    @property
    def idle(self) -> bool:
        """Whether the update changed nothing at all."""
        return self.touched_pages == 0 and self.n_late_dropped == 0


class _TriScore:
    """Mutable per-triangle record: the three ``w'`` weights + scores."""

    __slots__ = ("w_ab", "w_ac", "w_bc", "t", "w_xyz", "p_sum", "c")

    def __init__(self, w_ab: int, w_ac: int, w_bc: int) -> None:
        self.w_ab = w_ab
        self.w_ac = w_ac
        self.w_bc = w_bc
        self.t = 0.0
        self.w_xyz = 0
        self.p_sum = 0
        self.c = 0.0


class ScoringCore:
    """Steps 2–3 over CI ledgers: threshold, close triangles, score, answer.

    Holds the ``w'`` pair weights, the ``P'`` ledger and the live
    user→page incidence, derives the thresholded adjacency and the
    triangle store (``T`` of eq. 7, ``w_xyz``/``C`` of eqs. 2–4) from
    them, and answers every query over that state.  Keys only have to be
    hashable and totally ordered, so the one implementation serves both
    users of it:

    - :class:`DetectionEngine` keys by dense interner ids; its projector
      moves the ledgers per comment;
    - the sharded tier keeps one long-lived name-keyed core
      and :meth:`merge` adds the ledger deltas its shards ship at each
      claim (:class:`~repro.serve.exchange.ExchangeAggregate`).

    Either way the ledgers move first and :meth:`_settle` then brings the
    thresholded adjacency, the triangles and their scores in line where
    they moved, so both threshold, close, score, rank and tie-break with
    the same code — "aggregate ≡ engine" holds by construction.

    Parameters
    ----------
    config:
        Supplies ``min_triangle_weight``, ``compute_hypergraph`` and
        ``min_component_size``.
    pair_weights / page_counts / incidence:
        Ledgers to load (adopted, not copied): ``{(a, b): w'}`` with
        ``a < b``, nonzero ``{user: P'}``, and ``{user: {page: count}}``.
        Omitted = empty, for a subclass that fills them itself.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        pair_weights: dict | None = None,
        page_counts: dict | None = None,
        incidence: dict | None = None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # Running CI state: accumulated edge weights w' and the P' ledger
        # (nonzero entries only).
        self._ci: dict[tuple[_Key, _Key], int] = (
            pair_weights if pair_weights is not None else {}
        )
        self._pprime: dict[_Key, int] = (
            page_counts if page_counts is not None else {}
        )
        # Live incidence: user -> {page: live comment count}.
        self._user_pages: dict[_Key, dict[_Key, int]] = (
            incidence if incidence is not None else {}
        )
        # Thresholded adjacency and the triangle store over it.
        self._adj: dict[_Key, dict[_Key, int]] = {}
        self._n_thresholded = 0
        self._tris: dict[_TriKey, _TriScore] = {}
        self._tri_by_user: dict[_Key, set[_TriKey]] = {}
        if self._ci:
            self._rebuild_triangles()

    # -- key <-> author-name translation (identity for name-keyed ledgers) ------
    def _name_of(self, key: _Key) -> str:
        return key

    def _key_of(self, author: str) -> _Key | None:
        return author

    def _rebuild_triangles(self) -> None:
        """Derive adjacency, triangles and scores from the ledgers."""
        cutoff = self.config.min_triangle_weight
        self._adj = {}
        self._n_thresholded = 0
        for (u, v), w in self._ci.items():
            if w >= cutoff:
                self._adj.setdefault(u, {})[v] = w
                self._adj.setdefault(v, {})[u] = w
                self._n_thresholded += 1
        self._tris = {}
        self._tri_by_user = {}
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v <= u:
                    continue
                for w in nbrs.keys() & self._adj[v].keys():
                    if w <= v:
                        continue
                    key = (u, v, w)
                    self._tris[key] = _TriScore(
                        self._adj[u][v], self._adj[u][w], self._adj[v][w]
                    )
                    for vertex in key:
                        self._tri_by_user.setdefault(vertex, set()).add(key)
        self._rescore(self._tris)

    # -- dirty-edge maintenance -------------------------------------------------
    def _update_triangles(
        self, old_weights: dict[tuple[_Key, _Key], int]
    ) -> tuple[int, int, int, set[_TriKey]]:
        """Bring the thresholded adjacency and the triangle store in line
        with ``w'`` where it moved.

        *old_weights* maps every pair whose ``w'`` may have moved to its
        value before; a pair whose weight is back at that value is not
        dirty.  Returns (dirty edges, added, removed, keys to rescore).
        """
        cutoff = self.config.min_triangle_weight
        weights = self._ci
        adj = self._adj
        n_dirty = added = removed = 0
        rescore: set[_TriKey] = set()
        for (u, v), old_w in old_weights.items():
            new_w = weights.get((u, v), 0)
            if new_w == old_w:
                continue
            n_dirty += 1
            # The adjacency holds exactly the pairs at or above the cutoff.
            was_above = old_w >= cutoff
            if new_w >= cutoff:
                if was_above:
                    adj[u][v] = new_w
                    adj[v][u] = new_w
                    for key in self._tris_with_edge(u, v):
                        self._set_tri_weight(key, u, v, new_w)
                        rescore.add(key)
                else:
                    nbrs_u = adj.setdefault(u, {})
                    nbrs_v = adj.setdefault(v, {})
                    common = nbrs_u.keys() & nbrs_v.keys()
                    nbrs_u[v] = new_w
                    nbrs_v[u] = new_w
                    self._n_thresholded += 1
                    for w in common:
                        key = tuple(sorted((u, v, w)))
                        if key in self._tris:
                            # Another dirty edge of the same new triangle
                            # already closed it this batch.
                            self._set_tri_weight(key, u, v, new_w)
                            rescore.add(key)
                            continue
                        tri = _TriScore(0, 0, 0)
                        self._tris[key] = tri
                        self._set_tri_weight(key, u, v, new_w)
                        self._set_tri_weight(key, u, w, nbrs_u[w])
                        self._set_tri_weight(key, v, w, nbrs_v[w])
                        for vertex in key:
                            self._tri_by_user.setdefault(vertex, set()).add(key)
                        rescore.add(key)
                        added += 1
            elif was_above:
                del adj[u][v]
                del adj[v][u]
                self._n_thresholded -= 1
                if not adj[u]:
                    del adj[u]
                if not adj[v]:
                    del adj[v]
                for key in self._tris_with_edge(u, v):
                    del self._tris[key]
                    rescore.discard(key)
                    for vertex in key:
                        owners = self._tri_by_user[vertex]
                        owners.discard(key)
                        if not owners:
                            del self._tri_by_user[vertex]
                    removed += 1
        return n_dirty, added, removed, rescore

    def _settle(
        self,
        old_weights: dict[tuple[_Key, _Key], int],
        old_counts: dict[_Key, int],
        dirty_users: set[_Key],
    ) -> tuple[int, int, int, set[_TriKey]]:
        """Re-derive triangles and scores after the ledgers moved.

        *old_weights* / *old_counts* map every ``w'`` pair / ``P'`` user
        that may have moved to its value before; *dirty_users* holds the
        users whose live page set changed and gains those whose ``P'``
        did.  Closes and drops triangles on the dirty edges, then
        rescores every triangle on a dirty edge or at a dirty user.
        Returns (dirty edges, added, removed, rescored keys).
        """
        pprime = self._pprime
        for u, before in old_counts.items():
            if pprime.get(u, 0) != before:
                dirty_users.add(u)
        n_dirty, added, removed, rescore = self._update_triangles(old_weights)
        tri_by_user = self._tri_by_user
        for u in dirty_users:
            rescore.update(tri_by_user.get(u, ()))
        self._rescore(rescore)
        return n_dirty, added, removed, rescore

    def merge(
        self,
        pairs: dict[tuple[_Key, _Key], int],
        counts: dict[_Key, int],
        incidence: dict[tuple[_Key, _Key], int],
    ) -> None:
        """Add ledger deltas, then settle triangles and scores where they moved.

        *pairs* holds ``w'`` deltas keyed like the ledger (``a < b``),
        *counts* ``P'`` deltas and *incidence* ``(user, page)`` live
        comment-count deltas.  The sharded tier's aggregate sums its
        shards' changes into these; the result is the core a from-scratch
        load of the summed ledgers would be.
        """
        old_weights = _add_deltas(self._ci, pairs)
        old_counts = _add_deltas(self._pprime, counts)
        user_pages = self._user_pages
        dirty_users: set[_Key] = set()
        for (user, page), step in incidence.items():
            if not step:
                continue
            pages = user_pages.setdefault(user, {})
            n = pages.get(page, 0) + step
            if n:
                if n == step:
                    dirty_users.add(user)
                pages[page] = n
            else:
                del pages[page]
                dirty_users.add(user)
                if not pages:
                    del user_pages[user]
        self._settle(old_weights, old_counts, dirty_users)

    def _tris_with_edge(self, u: _Key, v: _Key) -> list[_TriKey]:
        a = self._tri_by_user.get(u)
        b = self._tri_by_user.get(v)
        if not a or not b:
            return []
        return list(a & b)

    def _set_tri_weight(self, key: _TriKey, u: _Key, v: _Key, w: int) -> None:
        tri = self._tris[key]
        lo, hi = (u, v) if u < v else (v, u)
        a, b, c = key
        if (lo, hi) == (a, b):
            tri.w_ab = w
        elif (lo, hi) == (a, c):
            tri.w_ac = w
        else:
            tri.w_bc = w

    def _rescore(self, keys: Iterable[_TriKey]) -> None:
        pprime = self._pprime
        user_pages = self._user_pages
        hyper = self.config.compute_hypergraph
        for key in keys:
            tri = self._tris.get(key)
            if tri is None:
                continue
            a, b, c = key
            min_w = min(tri.w_ab, tri.w_ac, tri.w_bc)
            denom = pprime.get(a, 0) + pprime.get(b, 0) + pprime.get(c, 0)
            # Same kernel as the batch path, so online and batch scores
            # are bit-for-bit identical by construction.
            tri.t = normalized_score_scalar(min_w, denom)
            if hyper:
                pa = user_pages.get(a, {})
                pb = user_pages.get(b, {})
                pc = user_pages.get(c, {})
                sets = sorted((pa, pb, pc), key=len)
                small = sets[0].keys() & sets[1].keys()
                tri.w_xyz = (
                    len(small & sets[2].keys()) if small else 0
                )
                tri.p_sum = len(pa) + len(pb) + len(pc)
                tri.c = normalized_score_scalar(tri.w_xyz, tri.p_sum)

    # -- queries ----------------------------------------------------------------
    def top_k_triplets(self, k: int, by: str = "t") -> list[dict]:
        """The *k* highest-scoring live triplets as name-keyed rows.

        ``by`` ranks by ``"t"`` (eq. 7), ``"c"`` (eq. 4, requires
        ``compute_hypergraph``), or ``"min_weight"``.  Rows are sorted by
        descending score with the lexicographic author triple as the
        deterministic tie-break, and carry every per-triplet metric, so
        the result is directly comparable with a batch run's (see
        :func:`repro.analysis.export.top_triplets_rows`).
        """
        with self.metrics.time("engine.query"):
            rows = self._triplet_rows()
            key = self._rank_key(by)
            rows.sort(key=lambda r: (-r[key], r["authors"]))
            return rows[: max(int(k), 0)]

    def _rank_key(self, by: str) -> str:
        if by == "t":
            return "t"
        if by == "min_weight":
            return "min_weight"
        if by == "c":
            if not self.config.compute_hypergraph:
                raise ValueError(
                    "ranking by C requires compute_hypergraph=True"
                )
            return "c"
        raise ValueError(f"unknown ranking {by!r} (use t, c, min_weight)")

    def _triplet_rows(self) -> list[dict]:
        # Name each user once, not once per triangle it is in.
        name = {u: self._name_of(u) for u in self._tri_by_user}
        rows = []
        for (a, b, c), tri in self._tris.items():
            names = tuple(sorted((name[a], name[b], name[c])))
            rows.append(
                {
                    "authors": names,
                    "min_weight": min(tri.w_ab, tri.w_ac, tri.w_bc),
                    "weights": tuple(sorted((tri.w_ab, tri.w_ac, tri.w_bc))),
                    "t": tri.t,
                    "w_xyz": tri.w_xyz,
                    "p_sum": tri.p_sum,
                    "c": tri.c,
                }
            )
        return rows

    def user_score(self, author: str) -> dict:
        """Live per-author summary: ``P'``, page count, degree, best scores.

        Returns a row with ``present=False`` (zeros elsewhere) for
        authors not currently in the live window — a monitoring query
        must not throw on unknown names.
        """
        with self.metrics.time("engine.query"):
            uid = self._key_of(author)
            if uid is None or uid not in self._user_pages:
                return {
                    "author": author,
                    "present": False,
                    "p_prime": 0,
                    "pages": 0,
                    "degree": 0,
                    "n_triplets": 0,
                    "best_t": 0.0,
                    "best_c": 0.0,
                }
            tris = self._tri_by_user.get(uid, set())
            return {
                "author": author,
                "present": True,
                "p_prime": self._pprime.get(uid, 0),
                "pages": len(self._user_pages.get(uid, {})),
                "degree": len(self._adj.get(uid, {})),
                "n_triplets": len(tris),
                "best_t": max((self._tris[k].t for k in tris), default=0.0),
                "best_c": max((self._tris[k].c for k in tris), default=0.0),
            }

    def component_of(self, author: str) -> list[str]:
        """Sorted member names of *author*'s thresholded-graph component.

        Empty when the author is absent or isolated at the current
        cutoff (no ``min_component_size`` floor is applied here — this
        is the investigative "who is this account coordinating with"
        query).
        """
        with self.metrics.time("engine.query"):
            uid = self._key_of(author)
            if uid is None or uid not in self._adj:
                return []
            return sorted(map(self._name_of, self._reachable(uid)))

    def _reachable(self, start: _Key) -> set[_Key]:
        """Vertices connected to *start* in the thresholded adjacency."""
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._adj.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def components(self) -> list[list[str]]:
        """All candidate networks (components ≥ ``min_component_size``),
        each as a sorted name list, largest first."""
        with self.metrics.time("engine.query"):
            name_of = self._name_of
            pairs = [(u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v]
            return named_components(
                [name_of(u) for u, _ in pairs],
                [name_of(v) for _, v in pairs],
                self.config.min_component_size,
            )

    @property
    def n_triangles(self) -> int:
        """Triangles currently above the cutoff."""
        return len(self._tris)

    def ci_edges(self) -> dict[tuple[str, str], int]:
        """Current ``w'`` weights keyed by sorted author-name pairs."""
        name_of = self._name_of
        out: dict[tuple[str, str], int] = {}
        for (u, v), w in self._ci.items():
            a, b = name_of(u), name_of(v)
            out[(a, b) if a <= b else (b, a)] = w
        return out

    def page_counts(self) -> dict[str, int]:
        """Nonzero ``P'`` entries keyed by author name."""
        name_of = self._name_of
        return {name_of(u): c for u, c in self._pprime.items()}


def _add_deltas(ledger: dict, deltas: dict) -> dict:
    """Add *deltas* into *ledger*, dropping entries that reach zero;
    returns the value before of every key that moved."""
    before = {}
    for key, step in deltas.items():
        if not step:
            continue
        old = ledger.get(key, 0)
        before[key] = old
        if old + step:
            ledger[key] = old + step
        else:
            del ledger[key]
    return before


class _ClaimJournal:
    """Ledger entries an engine moved since its last claim.

    ``pairs`` / ``users`` / ``incidence`` hold dense-id keys of moved
    ``w'`` pairs, ``P'`` users and ``(user, page)`` incidence cells.
    Compaction remaps ids, so before it runs the journal is *settled*:
    the entries are read out by name with their values, and ``settled``
    carries them to the next claim.
    """

    __slots__ = ("epoch", "generation", "pairs", "users", "incidence", "settled")

    def __init__(self, epoch: str, generation: int) -> None:
        self.epoch = epoch
        self.generation = generation
        self.pairs: set[tuple[int, int]] = set()
        self.users: set[int] = set()
        self.incidence: set[tuple[int, int]] = set()
        self.settled: tuple[dict, dict, dict] = ({}, {}, {})


class DetectionEngine(ScoringCore):
    """Maintains live detection state and answers queries over it.

    A :class:`ScoringCore` keyed by the projector's dense user/page ids
    whose ledgers and triangle store are kept current per micro-batch
    instead of being loaded; every query is the core's.

    Parameters
    ----------
    config:
        The same :class:`~repro.pipeline.config.PipelineConfig` a batch
        run would use — window, cutoff, author filter, component floor,
        ``compute_hypergraph`` — so the oracle for any engine state is
        simply ``CoordinationPipeline(config).run(live_corpus)``.
    metrics:
        Optional shared :class:`~repro.serve.metrics.ServiceMetrics`
        registry (one is created when omitted).
    auto_compact:
        When true (default), the projector's interners are compacted —
        and the engine rebuilt from the compacted state — whenever the
        interned id space exceeds ``compact_ratio`` × the live
        population, keeping steady-state memory proportional to the live
        window under churn.
    compact_ratio / compact_min:
        Compaction triggers when ``interned > max(compact_min,
        compact_ratio * live)`` for users or pages.

    Examples
    --------
    >>> from repro.projection import TimeWindow
    >>> eng = DetectionEngine(PipelineConfig(
    ...     window=TimeWindow(0, 60), min_triangle_weight=1,
    ...     min_component_size=2, compute_hypergraph=True))
    >>> _ = eng.ingest([("a", "p", 0), ("b", "p", 10), ("c", "p", 20)])
    >>> eng.top_k_triplets(1)[0]["authors"]
    ('a', 'b', 'c')
    >>> _ = eng.advance(1_000)              # slide the window past p
    >>> eng.n_live_comments, eng.top_k_triplets(1)
    (0, [])
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        metrics: ServiceMetrics | None = None,
        auto_compact: bool = True,
        compact_ratio: float = 4.0,
        compact_min: int = 1024,
    ) -> None:
        super().__init__(config, metrics=metrics)
        self.auto_compact = bool(auto_compact)
        self.compact_ratio = float(compact_ratio)
        self.compact_min = int(compact_min)
        self.proj = IncrementalProjector(
            self.config.window, pair_batch=self.config.pair_batch
        )
        # w' and P' are the projector's own ledgers, moved per comment.
        self._ci = self.proj.pair_weights
        self._pprime = self.proj.page_counts
        self.evict_cutoff: int | None = None
        # Author-filter bookkeeping (decision cache + report data).
        self._filter_cache: dict[str, bool] = {}
        self._filtered_names: dict[str, None] = {}
        self._filtered_comments = 0
        # What moved since the last claim; None until the first claim,
        # so an engine nobody claims from records nothing.
        self._journal: _ClaimJournal | None = None

    @classmethod
    def restore(
        cls,
        store,
        config: PipelineConfig | None = None,
        *,
        metrics: ServiceMetrics | None = None,
    ):
        """Rebuild an engine from a :class:`~repro.store.DurableStore`.

        Loads the newest snapshot generation that validates (falling back
        to older generations on corruption) and replays the write-ahead
        journal's suffix, so the returned engine is bit-identical to one
        that never crashed — the contract the recovery chaos matrix
        (:func:`repro.verify.chaos.run_recovery_chaos`) enforces.
        Returns ``(engine, recovery_report)``.
        """
        config = config if config is not None else PipelineConfig()
        return store.recover_engine(config, metrics=metrics)

    # -- key <-> author-name translation: the projector's user interner ---------
    def _name_of(self, key: int) -> str:
        return str(self.proj.user_names.key_of(key))

    def _key_of(self, author: str) -> int | None:
        return self.proj.user_names.get(author)

    # -- updates ---------------------------------------------------------------
    def ingest(self, events) -> BatchReport:
        """Apply one micro-batch of ``(author, page, created_utc)`` events.

        Events by filtered authors and events older than the current
        eviction cutoff (late beyond the watermark) are dropped and
        counted; everything else becomes part of the live corpus.
        """
        accepted: list[tuple] = []
        n_filtered = 0
        n_late = 0
        for author, page, created in events:
            created = int(created)
            if self._is_filtered(author):
                n_filtered += 1
                continue
            if self.evict_cutoff is not None and created < self.evict_cutoff:
                n_late += 1
                continue
            accepted.append((author, page, created))
        self._filtered_comments += n_filtered
        report = self._apply(accepted, None, n_filtered, n_late)
        self._maybe_compact()
        return report

    def advance(self, cutoff: int) -> BatchReport:
        """Advance the sliding window: evict comments older than *cutoff*.

        The cutoff is clamped to be monotone (a stale watermark never
        un-evicts) and becomes the admission floor for future arrivals.
        """
        cutoff = int(cutoff)
        if self.evict_cutoff is not None:
            cutoff = max(cutoff, self.evict_cutoff)
        self.evict_cutoff = cutoff
        report = self._apply([], cutoff, 0, 0)
        self._maybe_compact()
        return report

    def _is_filtered(self, author) -> bool:
        if not isinstance(author, str):
            return False
        verdict = self._filter_cache.get(author)
        if verdict is None:
            verdict = self.config.author_filter.matches(author)
            self._filter_cache[author] = verdict
            if verdict:
                self._filtered_names[author] = None
        return verdict

    # -- the dirty-set update ---------------------------------------------------
    def _apply(
        self,
        appends: list[tuple],
        cutoff: int | None,
        n_filtered: int,
        n_late: int,
    ) -> BatchReport:
        with self.metrics.time("engine.update"):
            proj = self.proj
            intern_user = proj.user_names.intern
            intern_page = proj.page_names.intern
            user_pages = self._user_pages
            journal = self._journal
            cells = journal.incidence if journal is not None else None
            # The projector records every w' / P' entry its count
            # crossings moved, with the value before the batch.
            delta = ProjectionDelta()
            # Live incidence maintenance (feeds p_x and w_xyz); a user
            # whose distinct-page set changed is dirty for C/T rescoring.
            dirty_users: set[int] = set()
            for author, page, t in appends:
                uid = intern_user(author)
                pid = intern_page(page)
                proj.insert(uid, pid, t, delta)
                pages = user_pages.setdefault(uid, {})
                n = pages.get(pid, 0)
                pages[pid] = n + 1
                if not n:
                    dirty_users.add(uid)
                if cells is not None:
                    cells.add((uid, pid))
            n_evicted = 0
            if cutoff is not None:
                ev = proj.evict_before(cutoff, delta)
                n_evicted = ev.n_evicted
                for uid, pid in ev.evicted:
                    pages = user_pages[uid]
                    pages[pid] -= 1
                    if pages[pid] == 0:
                        del pages[pid]
                        dirty_users.add(uid)
                        if not pages:
                            del user_pages[uid]
                if cells is not None:
                    cells.update(ev.evicted)
            if journal is not None:
                journal.pairs.update(delta.pairs)
                journal.users.update(delta.users)

            # The projector already moved w' and P' (this engine's _ci and
            # _pprime); settle triangles and scores where they differ.
            n_dirty, added, removed, rescore = self._settle(
                delta.pairs, delta.users, dirty_users
            )

        m = self.metrics
        m.counter("engine.batches").inc()
        m.counter("engine.events_ingested").inc(len(appends))
        m.counter("engine.events_filtered").inc(n_filtered)
        m.counter("engine.events_late_dropped").inc(n_late)
        m.counter("engine.comments_evicted").inc(n_evicted)
        m.counter("engine.dirty_edges").inc(n_dirty)
        m.counter("engine.dirty_users").inc(len(dirty_users))
        m.counter("engine.triangles_added").inc(added)
        m.counter("engine.triangles_removed").inc(removed)
        m.counter("engine.rescored_triangles").inc(len(rescore))
        m.gauge("engine.last_dirty_edges").set(n_dirty)
        m.gauge("engine.last_rescored_triangles").set(len(rescore))
        m.gauge("engine.live_comments").set(self.n_live_comments)
        m.gauge("engine.live_pages").set(self.proj.n_pages)
        m.gauge("engine.ci_edges").set(len(self._ci))
        m.gauge("engine.thresholded_edges").set(self._n_thresholded)
        m.gauge("engine.triangles").set(len(self._tris))
        if self.evict_cutoff is not None:
            m.gauge("engine.evict_cutoff").set(self.evict_cutoff)
        return BatchReport(
            n_appended=len(appends),
            n_filtered=n_filtered,
            n_late_dropped=n_late,
            n_evicted=n_evicted,
            touched_pages=len(delta.pages),
            dirty_edges=n_dirty,
            dirty_users=len(dirty_users),
            triangles_added=added,
            triangles_removed=removed,
            rescored_triangles=len(rescore),
        )

    # -- compaction -------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if not self.auto_compact:
            return
        stats = self.proj.memory_stats()
        bloated = stats["interned_users"] > max(
            self.compact_min, self.compact_ratio * stats["live_users"]
        ) or stats["interned_pages"] > max(
            self.compact_min, self.compact_ratio * stats["live_pages"]
        )
        if bloated:
            self.compact()

    def compact(self) -> None:
        """Compact the projector id spaces and rebuild engine state.

        Compaction remaps every dense id, so the engine's id-keyed
        stores are rebuilt from the (already compacted, still exact)
        projector state: ``w'`` and ``P'`` are the projector's recounted
        ledgers, the incidence comes from the live comments, and the
        triangle store from a fresh closure over the thresholded
        adjacency.  Amortized cost is
        bounded because compaction only fires after ~``compact_ratio``×
        growth; queries before and after are identical (asserted in
        tests).
        """
        with self.metrics.time("engine.compact"):
            journal = self._journal
            if journal is not None:
                # Read the journal out by name before its ids are remapped.
                journal.settled = self._journal_entries(journal)
                journal.pairs.clear()
                journal.users.clear()
                journal.incidence.clear()
            self.proj.compact()
            self._rebuild_from_projector()
        self.metrics.counter("engine.compactions").inc()

    def _rebuild_from_projector(self) -> None:
        self._ci = self.proj.pair_weights
        self._pprime = self.proj.page_counts
        _order, users, pages, _times = self.proj.live_rows()
        self._user_pages = {}
        for uid, pid in zip(users.tolist(), pages.tolist()):
            pages_of = self._user_pages.setdefault(uid, {})
            pages_of[pid] = pages_of.get(pid, 0) + 1
        self._rebuild_triangles()

    # -- claims: the page-hash exchange's shard side ----------------------------
    def claim(
        self, epoch: str | None, since: int | None
    ) -> tuple[str, int | None, int, tuple[dict, dict, dict]]:
        """The ledger entries that moved since the claim *since* answered.

        A claimant names the ``(epoch, generation)`` of the last answer
        it applied.  When that is this engine's last answer, the reply
        holds every ``w'`` pair, ``P'`` user and ``(user, page)``
        incidence cell moved since, at its current value (``0`` = gone),
        name-keyed.  Otherwise — the first claim, another engine
        incarnation (a restart), a lost or unapplied reply — the reply is
        the full state: the change from empty.  Either way the journal
        restarts empty at a new generation.

        Returns ``(epoch, since, generation, (pairs, counts,
        incidence))`` with ``since=None`` for a full state; *pairs* maps
        sorted name pairs, *counts* names, *incidence* ``{user: {page:
        count}}``.
        """
        journal = self._journal
        if journal is not None and (epoch, since) == (
            journal.epoch,
            journal.generation,
        ):
            body = self._journal_entries(journal)
        else:
            since = None
            body = (self.ci_edges(), self.page_counts(), self.live_incidence())
            if journal is None:
                journal = _ClaimJournal(os.urandom(8).hex(), 0)
        self._journal = _ClaimJournal(journal.epoch, journal.generation + 1)
        return journal.epoch, since, journal.generation + 1, body

    def _journal_entries(self, journal: _ClaimJournal) -> tuple[dict, dict, dict]:
        """*journal*'s entries by name, at their current values."""
        pairs, counts, incidence = journal.settled
        uname = self.proj.user_names.key_of
        pname = self.proj.page_names.key_of
        weights = self._ci
        for key in journal.pairs:
            a, b = str(uname(key[0])), str(uname(key[1]))
            pairs[(a, b) if a <= b else (b, a)] = weights.get(key, 0)
        pprime = self._pprime
        for u in journal.users:
            counts[str(uname(u))] = pprime.get(u, 0)
        user_pages = self._user_pages
        for u, p in journal.incidence:
            incidence.setdefault(str(uname(u)), {})[str(pname(p))] = (
                user_pages.get(u, {}).get(p, 0)
            )
        return pairs, counts, incidence

    def snapshot(self) -> PipelineResult:
        """Export the live state as a batch-compatible
        :class:`~repro.pipeline.results.PipelineResult`.

        Every artifact (CI graph, thresholded view, canonical triangle
        set, ``T``/``w_xyz``/``C`` arrays, component reports) is
        assembled from the engine's incremental stores, so downstream
        consumers — DOT export, markdown reports, the component census —
        work on live state unchanged.
        """
        with self.metrics.time("engine.snapshot"):
            ci = self.proj.ci_graph()
            ci_thr = ci.threshold(self.config.min_triangle_weight)
            keys = sorted(self._tris)
            if keys:
                arr = np.asarray(keys, dtype=np.int64)
                tris = [self._tris[k] for k in keys]
                triangles = TriangleSet(
                    a=arr[:, 0],
                    b=arr[:, 1],
                    c=arr[:, 2],
                    w_ab=np.asarray([t.w_ab for t in tris], dtype=np.int64),
                    w_ac=np.asarray([t.w_ac for t in tris], dtype=np.int64),
                    w_bc=np.asarray([t.w_bc for t in tris], dtype=np.int64),
                )
                t_vals = np.asarray([t.t for t in tris], dtype=np.float64)
                w_xyz = np.asarray([t.w_xyz for t in tris], dtype=np.int64)
                p_sum = np.asarray([t.p_sum for t in tris], dtype=np.int64)
                c_vals = np.asarray([t.c for t in tris], dtype=np.float64)
            else:
                triangles = TriangleSet.empty()
                t_vals = np.empty(0, dtype=np.float64)
                w_xyz = np.empty(0, dtype=np.int64)
                p_sum = np.empty(0, dtype=np.int64)
                c_vals = np.empty(0, dtype=np.float64)
            triplet_metrics = (
                TripletMetrics(
                    triangles=triangles,
                    w_xyz=w_xyz,
                    p_sum=p_sum,
                    c_scores=c_vals,
                )
                if self.config.compute_hypergraph
                else None
            )
            components = component_reports(
                ci_thr, self.config.min_component_size
            )
            stats = {
                "pages": self.proj.n_pages,
                "comments": self.proj.n_comments,
                "triangles": triangles.n_triangles,
                "thresholded_edges": ci_thr.n_edges,
                "components": len(components),
            }
            return PipelineResult(
                config=self.config,
                filter_report=FilterReport(
                    removed_names=tuple(self._filtered_names),
                    removed_user_ids=(),
                    removed_comments=self._filtered_comments,
                ),
                ci=ci,
                ci_thresholded=ci_thr,
                triangles=triangles,
                t_scores=t_vals,
                triplet_metrics=triplet_metrics,
                components=components,
                stats=stats,
                timings=self.metrics.timings,
            )

    def status(self) -> dict:
        """Service-level state summary plus the full metrics snapshot."""
        stats = self.proj.memory_stats()
        return {
            "live_comments": self.n_live_comments,
            "live_pages": stats["live_pages"],
            "live_users": stats["live_users"],
            "interned_users": stats["interned_users"],
            "interned_pages": stats["interned_pages"],
            "evict_cutoff": self.evict_cutoff,
            "ci_edges": len(self._ci),
            "thresholded_edges": self._n_thresholded,
            "triangles": len(self._tris),
            "filtered_comments": self._filtered_comments,
            "metrics": self.metrics.to_dict(),
        }

    # -- small accessors ---------------------------------------------------------
    @property
    def n_live_comments(self) -> int:
        """Comments currently inside the live window."""
        return self.proj.n_comments

    def live_authors(self) -> list[str]:
        """Sorted names of authors with at least one live comment."""
        name_of = self.proj.user_names.key_of
        return sorted(str(name_of(u)) for u in self._user_pages)

    def live_incidence(self) -> dict[str, dict[str, int]]:
        """Live comment counts as ``{author: {page: count}}``, name-keyed.

        This is the engine's ``w_xyz``/``p_x`` substrate (eqs. 2–3)
        exported by name so page-partitioned ingest shards can exchange
        it: pages are disjoint across shards under the page hash, so the
        per-shard incidences merge by plain union into exactly the
        single-engine incidence.
        """
        uname = self.proj.user_names.key_of
        pname = self.proj.page_names.key_of
        return {
            str(uname(u)): {str(pname(p)): int(c) for p, c in pages.items()}
            for u, pages in self._user_pages.items()
        }
