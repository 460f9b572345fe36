"""Algorithm 1 — projecting B to the common interaction graph C.

Two engines, both thin orchestration over :mod:`repro.kernels`:

- :func:`project_reference` runs the paper's Algorithm 1 through the
  kernel layer's *reference twins* (:func:`repro.kernels.cooccur_pairs_reference`
  is the verbatim per-page double loop, formerly this module's own body).
  It is O(Σ k_p²) in Python and exists as the correctness oracle.
- :func:`project` is the production engine: it sorts comments by
  ``(page, time)`` once and executes :data:`repro.exec.plans.PROJECTION_PLAN`
  on whichever executor it is handed (in-process by default) — the
  windowed two-pointer (:func:`repro.kernels.window_bounds`, formerly a
  private helper of this module), batched pair materialization
  (:func:`repro.kernels.cooccur_pairs`, bounded by ``pair_batch``
  candidate pairs, the memory-vs-window trade-off of paper §2.2/§3), and
  the eq. 5/6 reductions (:func:`repro.kernels.pair_weights`,
  :func:`repro.kernels.pair_ledger`) all live in the kernel layer.
  Passing a :class:`~repro.exec.ParallelExecutor` or a
  :class:`~repro.exec.YgmExecutor` runs the *same plan* across cores or
  YGM ranks — how the paper runs Step 1 (page-parallel by Algorithm 1's
  outer loop).

Both return the same :class:`ProjectionResult`; equality is enforced by
unit and property tests plus the cross-engine parity harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exec.executors import SerialExecutor
from repro.exec.plans import (
    PROJECTION_PLAN,
    PROJECTION_ROWS_PER_SECOND,
    page_aligned_shards,
)
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.edgelist import EdgeList
from repro.kernels import (
    cooccur_pairs_reference,
    pair_ledger,
    pair_ledger_reference,
    pair_weights,
    pair_weights_reference,
    window_bounds,
)
from repro.projection.ci_graph import CommonInteractionGraph
from repro.projection.window import TimeWindow
from repro.util.timers import StageTimings

__all__ = [
    "project",
    "project_reference",
    "ProjectionResult",
    "estimate_pair_volume",
]


@dataclass
class ProjectionResult:
    """Output of Step 1.

    Attributes
    ----------
    ci:
        The common interaction graph ``C = (U, I, w')`` plus the ``P'``
        page-count ledger.
    triples:
        Optional ``(page, lo_user, hi_user)`` arrays of the distinct
        per-page author pairs behind every edge weight — retained when
        ``keep_triples=True`` so the exact bucket merge can union them.
    stats:
        Size accounting: comments scanned, pages visited, raw in-window
        pair observations, distinct per-page pairs, CI edges.
    timings:
        Per-stage wall-clock ledger.
    """

    ci: CommonInteractionGraph
    triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    stats: dict[str, int] = field(default_factory=dict)
    timings: StageTimings = field(default_factory=StageTimings)


def _edges_from_arrays(
    ua: np.ndarray, ub: np.ndarray, w: np.ndarray
) -> EdgeList:
    """Wrap already-canonical (sorted, distinct) pair arrays as an EdgeList."""
    edges = EdgeList.__new__(EdgeList)
    edges.src, edges.dst, edges.weight = ua, ub, w
    return edges


# ---------------------------------------------------------------------------
# Reference engine (Algorithm 1, via the kernel reference twins)
# ---------------------------------------------------------------------------


def project_reference(
    btm: BipartiteTemporalMultigraph, window: TimeWindow
) -> ProjectionResult:
    """Algorithm 1 through the slow, obviously correct kernel twins."""
    users, pages, times, _bounds = btm.page_sorted_view()
    pg, a, b, n_obs = cooccur_pairs_reference(users, pages, times, window)
    n_users = btm.user_id_space
    ua, ub, w = pair_weights_reference(a, b)
    page_counts = pair_ledger_reference(pg, a, b, n_users)
    ci = CommonInteractionGraph(
        edges=_edges_from_arrays(ua, ub, w),
        page_counts=page_counts,
        window=window,
        user_names=btm.user_names,
    )
    return ProjectionResult(
        ci=ci,
        stats={
            "comments_scanned": btm.n_comments,
            "pages_visited": int(np.unique(pages).shape[0]),
            "pair_observations": int(n_obs.sum()),
            # Each unit of weight is one distinct (page, pair) observation.
            "distinct_page_pairs": int(pg.shape[0]),
            "ci_edges": ci.edges.n_edges,
        },
    )


# ---------------------------------------------------------------------------
# Vectorized production engine
# ---------------------------------------------------------------------------


def project(
    btm: BipartiteTemporalMultigraph,
    window: TimeWindow,
    pair_batch: int = 4_000_000,
    keep_triples: bool = False,
    *,
    executor=None,
    n_shards: int | None = None,
) -> ProjectionResult:
    """Vectorized Algorithm 1 (see module docstring).

    Parameters
    ----------
    btm:
        The bipartite temporal multigraph to project.
    window:
        The delay window ``(δ1, δ2)``.
    pair_batch:
        Peak number of candidate pairs materialized at once; the
        memory/throughput knob (paper §3's "much greater space to store in
        memory" concern).
    keep_triples:
        Retain the distinct ``(page, x, y)`` observations in the result
        (needed by the exact bucket merge and some ablations).
    executor:
        Plan executor to run :data:`~repro.exec.plans.PROJECTION_PLAN`
        on; defaults to an in-process
        :class:`~repro.exec.SerialExecutor`.  Pass a
        :class:`~repro.exec.ParallelExecutor` for multi-core projection
        or a :class:`~repro.exec.YgmExecutor` to scatter pages across
        YGM ranks — page-aligned sharding keeps the reduction
        bit-identical.
    n_shards:
        Number of page-aligned shards to cut the comment stream into;
        defaults to the executor's own sizing (``executor.shard_count``:
        1 for serial, ~100 ms of work per shard on a pool, a fixed
        number per YGM rank).

    Examples
    --------
    >>> btm = BipartiteTemporalMultigraph.from_comments(
    ...     [("a", "p", 0), ("b", "p", 30), ("c", "p", 300)]
    ... )
    >>> result = project(btm, TimeWindow(0, 60))
    >>> result.ci.edges.to_dict()
    {(0, 1): 1}
    """
    timings = StageTimings()
    with timings.stage("sort"):
        users, pages, times, _bounds = btm.page_sorted_view()

    n_users = btm.user_id_space
    context = {
        "delta1": window.delta1,
        "delta2": window.delta2,
        "pair_batch": int(pair_batch),
        "n_users": n_users,
    }
    if executor is None:
        executor = SerialExecutor()
    if n_shards is None:
        n_shards = executor.shard_count(
            users.shape[0], PROJECTION_ROWS_PER_SECOND
        )
    if users.shape[0] == 0:
        shards = []
    elif n_shards <= 1:
        shards = [(users, pages, times)]
    else:
        shards = page_aligned_shards(users, pages, times, n_shards)
    with timings.stage("plan"):
        red = executor.run(PROJECTION_PLAN, shards, context)

    with timings.stage("wrap"):
        ci = CommonInteractionGraph(
            edges=_edges_from_arrays(red["ua"], red["ub"], red["w"]),
            page_counts=red["page_counts"],
            window=window,
            user_names=btm.user_names,
        )

    return ProjectionResult(
        ci=ci,
        triples=(red["pg"], red["a"], red["b"]) if keep_triples else None,
        stats={
            "comments_scanned": btm.n_comments,
            "pages_visited": int(np.unique(pages).shape[0]),
            "pair_observations": red["pair_observations"],
            "distinct_page_pairs": int(red["pg"].shape[0]),
            "ci_edges": ci.edges.n_edges,
        },
        timings=timings,
    )


def estimate_pair_volume(
    btm: BipartiteTemporalMultigraph, window: TimeWindow
) -> int:
    """Upper bound on the candidate pairs Algorithm 1 materializes.

    Runs only the two searchsorted passes of the windowed two-pointer
    (:func:`repro.kernels.window_bounds`) — no pair arrays are built — so
    a caller can predict the memory and compute cost of a window *before*
    committing to the projection (the parameter-selection question the
    paper leaves open, §3.2.3/§4.3).  The count includes each comment's
    self-window hit when ``δ1 = 0`` and same-author pairs, hence "upper
    bound".
    """
    users, pages, times, _bounds = btm.page_sorted_view()
    if users.shape[0] == 0:
        return 0
    lo, hi = window_bounds(pages, times, window)
    return int((hi - lo).sum())


def reduce_triples_to_ci(
    pg: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    n_users: int,
    window: TimeWindow,
    user_names=None,
) -> CommonInteractionGraph:
    """Fold distinct ``(page, x, y)`` observations into ``C`` and ``P'``.

    Each triple is one page where the pair co-interacted inside the
    window, so ``w'_{xy}`` is the triple count per pair (eq. 5, via
    :func:`repro.kernels.pair_weights`) and ``P'_x`` is the number of
    distinct pages over triples touching *x* (eq. 6, via
    :func:`repro.kernels.pair_ledger`).
    """
    ua, ub, w = pair_weights(a, b)
    page_counts = pair_ledger(pg, a, b, n_users)
    return CommonInteractionGraph(
        edges=_edges_from_arrays(ua, ub, w),
        page_counts=page_counts,
        window=window,
        user_names=user_names,
    )
