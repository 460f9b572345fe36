"""Execution-plan layer: one plan, three executors.

Engines declare *what* runs — a :class:`~repro.exec.plan.Plan` of kernel
stages with declared shard keys — and pick *where* it runs by choosing a
:class:`~repro.exec.executors.SerialExecutor` (in-process), a
:class:`~repro.exec.executors.YgmExecutor` (across the ranks of a YGM
world), or a :class:`~repro.exec.executors.ParallelExecutor` (a
``YgmExecutor`` on a multiprocessing world it owns, one forked worker
per core, with cost-sized shards).  The
canonical plans for the paper's three steps live in
:mod:`repro.exec.plans`; :func:`~repro.exec.shm.leaked_shm_files` is the
``/dev/shm`` leak audit run after batch and serving runs.
"""

from repro.exec.executors import (
    ParallelExecutor,
    SerialExecutor,
    YgmExecutor,
    finish_reduce,
)
from repro.exec.plan import KernelStage, Plan, resolve_kernel
from repro.exec.plans import (
    PROJECTION_PLAN,
    SURVEY_PLAN,
    VALIDATION_PLAN,
    adaptive_shard_count,
    page_aligned_shards,
    position_range_shards,
    triplet_range_shards,
)
from repro.exec.shm import leaked_shm_files

__all__ = [
    "KernelStage",
    "Plan",
    "resolve_kernel",
    "SerialExecutor",
    "ParallelExecutor",
    "YgmExecutor",
    "finish_reduce",
    "leaked_shm_files",
    "PROJECTION_PLAN",
    "SURVEY_PLAN",
    "VALIDATION_PLAN",
    "adaptive_shard_count",
    "page_aligned_shards",
    "position_range_shards",
    "triplet_range_shards",
]
