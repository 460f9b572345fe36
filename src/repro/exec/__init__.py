"""Execution-plan layer: one plan, three executors.

Engines declare *what* runs — a :class:`~repro.exec.plan.Plan` of kernel
stages with declared shard keys — and pick *where* it runs by choosing a
:class:`~repro.exec.executors.SerialExecutor` (in-process), a
:class:`~repro.exec.parallel.ParallelExecutor` (persistent worker pool
fed over its own queues), or a
:class:`~repro.exec.executors.YgmExecutor` (across YGM ranks).  The
canonical plans for the paper's three steps live in
:mod:`repro.exec.plans`; :func:`~repro.exec.shm.leaked_shm_files` is the
``/dev/shm`` leak audit run after batch and serving runs.
"""

from repro.exec.executors import SerialExecutor, YgmExecutor, finish_reduce
from repro.exec.parallel import ParallelExecutor
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
