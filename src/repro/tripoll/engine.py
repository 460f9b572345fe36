"""The triangle survey as a plan on any executor (TriPoll's pattern).

:func:`survey_triangles_plan` is the pipeline's Step 2: it runs the same
kernels as the streaming survey of :mod:`repro.tripoll.survey` through
:data:`repro.exec.plans.SURVEY_PLAN` on whichever executor it is handed
— in-process, across a worker pool, or across YGM ranks:

1. the driver builds the degree-ordered forward adjacency and its wedge
   prices once (:func:`repro.kernels.forward_adjacency` /
   :func:`repro.kernels.wedge_counts`) and hands them to every shard as
   the plan context — the replicated closing-edge join table of
   TriPoll's metadata survey;
2. wedge *position ranges* are the shards
   (:func:`repro.exec.plans.position_range_shards`), each closed against
   the shared key table (:func:`repro.kernels.close_wedges`);
3. the driver concatenates the raw triangle batches in shard order and
   canonicalizes into a :class:`~repro.tripoll.survey.TriangleSet`.

Output is identical on every executor and shard count — same kernels,
same shard-ordered concatenation, same huge-id compaction guard; the
equivalence is asserted in ``tests/exec/test_plans_on_executors.py``.
"""

from __future__ import annotations

from repro.exec.plans import (
    SURVEY_PLAN,
    SURVEY_WEDGES_PER_SECOND,
    position_range_shards,
)
from repro.graph.edgelist import EdgeList
from repro.kernels import forward_adjacency, wedge_counts
from repro.tripoll.survey import (
    TriangleSet,
    _oriented_input,
    _restore_id_space,
)

__all__ = ["survey_triangles_plan"]


def survey_triangles_plan(
    edges: EdgeList,
    executor,
    n_shards: int | None = None,
    min_edge_weight: int = 0,
    wedge_batch: int = 4_000_000,
) -> TriangleSet:
    """Enumerate all triangles of *edges* on an arbitrary plan executor.

    Builds the adjacency and wedge prices once, cuts the wedge positions
    into *n_shards* ranges (``None`` asks ``executor.shard_count``), and
    runs :data:`~repro.exec.plans.SURVEY_PLAN` through *executor*.
    *wedge_batch* caps the wedges any one shard materializes: a small
    shard count yields more, smaller shards, never unbounded memory.
    Semantics match :func:`repro.tripoll.survey.survey_triangles`,
    including the ``min_edge_weight`` pre-threshold.

    Examples
    --------
    >>> from repro.exec import SerialExecutor
    >>> el = EdgeList([0, 0, 1], [1, 2, 2], [5, 4, 3])
    >>> survey_triangles_plan(el, SerialExecutor()).as_tuples()
    {(0, 1, 2)}
    """
    oriented = _oriented_input(edges, min_edge_weight)
    if oriented is None:
        return TriangleSet.empty()
    acc, id_values, rank, n = oriented

    adj = forward_adjacency(acc.src, acc.dst, acc.weight, rank, n)
    counts, cum = wedge_counts(adj)
    total_wedges = int(cum[-1])
    if n_shards is None:
        n_shards = executor.shard_count(total_wedges, SURVEY_WEDGES_PER_SECOND)
    per_shard = max(
        1, min(int(wedge_batch), -(-total_wedges // max(1, n_shards)))
    )
    shards = position_range_shards(counts, cum, per_shard)

    raw = executor.run(
        SURVEY_PLAN, shards, {"adj": adj, "counts": counts, "cum": cum}
    )
    out = TriangleSet.from_raw(*raw)
    return _restore_id_space(out, id_values)
