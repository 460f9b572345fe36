"""Step 1 — projecting the bipartite temporal multigraph (paper §2.2).

Given the BTM ``B`` and a time window ``(δ1, δ2)``, the projection emits
the **common interaction graph** ``C = (U, I, w')`` where ``w'_{xy}``
counts the pages on which authors *x* and *y* comment within the window of
each other (eq. 5), together with the per-author page-count ledger ``P'``
(eq. 6) that normalizes the triangle score ``T`` (eq. 7).

Algorithm 1 has one oracle and one engine:

- :func:`~repro.projection.project.project_reference` — a line-by-line
  transcription of Algorithm 1 through the kernel reference twins; the
  correctness oracle.
- :func:`~repro.projection.project.project` — the production engine:
  :data:`repro.exec.plans.PROJECTION_PLAN` (a vectorized two-pointer
  over ``(page, time)``-sorted, page-aligned shards) on whichever
  executor it is handed — in-process by default, a
  :class:`~repro.exec.ParallelExecutor` for cores, a
  :class:`~repro.exec.YgmExecutor` for pages scattered across YGM ranks
  (how the paper runs at cluster scale).

Two memory workarounds compose with it: :mod:`~repro.projection.buckets`
(paper §3: a wide window computed as a union of narrow disjoint
sub-windows, each a ``project`` call) and
:mod:`~repro.projection.streaming` (inputs larger than memory: the
same plan's map per page-hash spill partition, then its reduce).
:class:`~repro.projection.incremental.IncrementalProjector` is online
serving's per-comment count store; its bulk recount runs the plan's
kernel, :func:`repro.kernels.cooccur_pairs`.
"""

from repro.projection.window import TimeWindow
from repro.projection.project import (
    project,
    project_reference,
    ProjectionResult,
    estimate_pair_volume,
)
from repro.projection.ci_graph import CommonInteractionGraph
from repro.projection.buckets import project_bucketed
from repro.projection.cores import core_numbers, k_core_groups, k_core_subgraph
from repro.projection.streaming import project_streaming
from repro.projection.incremental import IncrementalProjector

__all__ = [
    "TimeWindow",
    "project",
    "project_reference",
    "ProjectionResult",
    "estimate_pair_volume",
    "CommonInteractionGraph",
    "project_bucketed",
    "core_numbers",
    "k_core_groups",
    "k_core_subgraph",
    "project_streaming",
    "IncrementalProjector",
]
