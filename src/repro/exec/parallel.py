"""Parallel executor: one plan, a persistent pool of worker processes.

:class:`ParallelExecutor` is the third executor of the plan layer.  Like
:class:`~repro.exec.executors.SerialExecutor` it maps every shard through
the plan's kernel and reduces driver-side in shard order, so results are
bit-identical by construction; unlike it, shards run on a **persistent
pool of worker processes** that stays warm across plans — the pipeline
runs projection, survey and validation of every layer through one pool.

Data moves over the pool's own queues, as messages between owners (the
way the paper's YGM substrate moves it):

- Dispatch is **batched**: each worker receives *one* queue item per
  job carrying the kernel's ``"module:attr"`` ref, the job's context and
  its whole ``(index, shard)`` task list, so the context is pickled once
  per worker per job and queue traffic is per-worker, not per-shard.
- Each worker puts every kernel result back on the shared result queue
  as it is; the driver unpickles results as they arrive, overlapping
  that work with the workers' remaining compute.

Failure semantics reuse the YGM taxonomy end to end
(:mod:`repro.ygm.errors`): a kernel that raises surfaces as
:class:`~repro.ygm.errors.HandlerError`; a worker that dies is detected
by liveness polling and raised as
:class:`~repro.ygm.errors.WorkerDiedError`; a configured ``deadline``
turns a hang into :class:`~repro.ygm.errors.BarrierTimeoutError`.  A
:class:`~repro.ygm.faults.FaultPlan` may be injected at construction.
Although a whole batch arrives as one queue item, the injector's clock
still ticks **once per task** inside the batch, so fault plans keyed on
per-rank delivered-message counts replay exactly as they did under
per-shard dispatch (and as they do on the YGM backend).

Pool lifecycle is defensive about the failure residue of earlier runs:
``run`` respawns the pool when *any* worker has died since the last run
(an OOM-killed worker must not quietly swallow its round-robin share of
the next job), and a job aborted by a typed failure is flushed — a
shared job-generation cell makes workers skip leftover tasks of dead
jobs, and the driver drops their stale results.  The fault hook, the
orphan guard (workers exit once the driver is gone, even after a
SIGKILL) and the teardown ladder (STOP → join deadline → terminate →
kill, queues closed) are the ones every forked family shares, from
:mod:`repro.util.procs`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from typing import Any, Sequence

from repro.exec.executors import finish_reduce
from repro.exec.plan import Plan, resolve_kernel
from repro.exec.plans import adaptive_shard_count
from repro.util.procs import apply_fault, parent_gone, stop
from repro.ygm.errors import (
    BarrierTimeoutError,
    HandlerError,
    WorkerDiedError,
)
from repro.ygm.faults import FaultInjector, FaultPlan

__all__ = ["ParallelExecutor"]

_STOP = None

#: Job-generation value meaning "no job is live" (workers skip tasks).
_NO_JOB = 0


def _pool_worker(
    rank: int, task_queue, result_queue, fault_plan, live_job, parent_pid: int
) -> None:
    """Worker loop: drain batched jobs until STOP or until the driver dies.

    Results are put back as they are; the queue's feeder thread is not
    joined on exit, so a worker told to stop never waits for the driver
    to read results of a job it already abandoned.
    """
    injector = (
        FaultInjector(fault_plan, rank) if fault_plan is not None else None
    )
    result_queue.cancel_join_thread()
    while True:
        try:
            item = task_queue.get(timeout=1.0)
        except queue_mod.Empty:
            if parent_gone(parent_pid):
                return
            continue
        if item is _STOP:
            return
        _run_batch(rank, injector, live_job, result_queue, *item)
        del item  # drop this job's inputs before blocking for the next


def _run_batch(
    rank, injector, live_job, result_queue, job_id, kernel_ref, context, tasks
) -> None:
    """Run one job's task list, reporting one result per task.

    The kernel ref is resolved once per batch; the fault injector ticks
    once per *task* so message-count fault plans are batching-invariant.
    Kernel exceptions are reported, not fatal: the worker stays alive for
    the next job (the YGM handler-error contract).  Tasks of a job that
    is no longer the live one (the driver aborted it) are skipped.
    """
    kernel = None
    for index, shard in tasks:
        try:
            fault = injector.next_fault() if injector is not None else None
            if fault is not None:
                apply_fault(fault)
            if job_id != live_job.value:  # aborted job: flush, don't churn
                continue
            if kernel is None:
                kernel = resolve_kernel(kernel_ref)
            report = (True, kernel(shard, context))
        except Exception as exc:
            report = (False, f"{kernel_ref}: {exc!r}")
        result_queue.put((rank, job_id, index, *report))


class ParallelExecutor:
    """Run plans across a persistent pool of worker processes.

    Parameters
    ----------
    n_workers:
        Pool size; ``None`` uses ``os.cpu_count()``.
    fault_plan:
        Optional :class:`~repro.ygm.faults.FaultPlan`; the per-worker
        delivered-*task* count is the message clock (batching does not
        coarsen it).
    deadline:
        Seconds one ``run`` may wait on outstanding shards before raising
        :class:`~repro.ygm.errors.BarrierTimeoutError`.  ``None`` waits
        forever — dead workers are still detected by liveness polling;
        the deadline exists to catch hangs.
    start_method:
        ``multiprocessing`` start method (default ``"fork"``, matching
        the YGM backend).

    Examples
    --------
    >>> from repro.exec import PROJECTION_PLAN  # doctest: +SKIP
    >>> with ParallelExecutor(4) as ex:  # doctest: +SKIP
    ...     red = ex.run(PROJECTION_PLAN, shards, context)
    """

    #: Seconds between result-queue polls (each poll re-checks liveness).
    _QUEUE_POLL = 0.05

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        deadline: float | None = None,
        start_method: str = "fork",
        join_deadline: float = 5.0,
    ) -> None:
        self.n_workers = max(1, int(n_workers or os.cpu_count() or 1))
        self.deadline = deadline
        self.join_deadline = float(join_deadline)
        self._fault_plan = fault_plan if fault_plan else None
        self._ctx = mp.get_context(start_method)
        self._workers: list = []
        self._task_queues: list = []
        self._result_queue = None
        self._live_job = None
        self._job_id = 0

    def shard_count(self, n_items: int, items_per_second: float) -> int:
        """Cost-adaptive: ~100 ms of work per shard, ≥ 1 per worker."""
        return adaptive_shard_count(n_items, self.n_workers, items_per_second)

    # -- pool lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether a worker pool is currently running, all workers live."""
        return bool(self._workers) and all(w.is_alive() for w in self._workers)

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live pool (spawning it if needed); for diagnostics."""
        self._ensure_pool()
        return tuple(w.pid for w in self._workers)

    def _ensure_pool(self) -> None:
        if self._workers:
            if self.alive:
                return
            # A quietly-dead worker (e.g. OOM-killed between runs) would
            # swallow its round-robin share of the next job forever with
            # no deadline set; reap the remnant pool and start fresh.
            self.shutdown()
        self._task_queues = [self._ctx.Queue() for _ in range(self.n_workers)]
        self._result_queue = self._ctx.Queue()
        # Plain shared int64, no lock: single writer (the driver), and
        # readers only compare against a value they were handed — a stale
        # read merely delays a flush by one task.
        self._live_job = self._ctx.Value("q", _NO_JOB, lock=False)
        self._workers = [
            self._ctx.Process(
                target=_pool_worker,
                args=(rank, self._task_queues[rank], self._result_queue,
                      self._fault_plan, self._live_job, os.getpid()),
                daemon=True,
            )
            for rank in range(self.n_workers)
        ]
        for w in self._workers:
            w.start()

    def shutdown(self) -> None:
        """Tear the pool down in bounded time, never raising, never leaking.

        STOP to every queue, then :func:`repro.util.procs.stop`'s ladder
        (shared join deadline → terminate → kill), then close the queues.
        Idempotent; ``run`` respawns a fresh pool afterwards.
        """
        if not self._workers:
            return
        if self._live_job is not None:
            self._live_job.value = _NO_JOB
        workers, self._workers = self._workers, []
        for q in self._task_queues:
            try:
                q.put_nowait(_STOP)
            except Exception:  # full/broken queue: escalation handles it
                pass
        stop(workers, self.join_deadline)
        queues = [*self._task_queues, self._result_queue]
        self._task_queues = []
        self._result_queue = None
        self._live_job = None
        for q in queues:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - defensive
                pass

    close = shutdown

    def __enter__(self) -> "ParallelExecutor":
        self._ensure_pool()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.shutdown()
        except Exception:
            pass

    # -- execution ----------------------------------------------------------
    def run(self, plan: Plan, shards: Sequence[Any], context: Any = None) -> Any:
        """Map shards over the pool, reduce driver-side in shard order.

        Shard *i* belongs to worker ``i % n_workers`` (deterministic
        round-robin); each worker receives its whole task list, with the
        context, as one queue item.  The reduce stage sees the original
        context object, exactly as under ``SerialExecutor``.
        """
        shards = list(shards)
        if not shards:
            partials: list[Any] = []
        else:
            self._ensure_pool()
            self._job_id += 1
            self._live_job.value = self._job_id
            try:
                tasks = list(enumerate(shards))
                for rank, q in enumerate(self._task_queues):
                    batch = tasks[rank :: self.n_workers]
                    if batch:
                        q.put((self._job_id, plan.map_stage.kernel, context, batch))
                partials = self._gather(len(shards))
            except BaseException:
                # Flush the aborted job: workers skip its leftover tasks
                # instead of computing results nobody will read.
                if self._live_job is not None:
                    self._live_job.value = _NO_JOB
                raise
        return finish_reduce(plan, partials, context)

    def _gather(self, n_shards: int) -> list[Any]:
        """Collect one result per dispatched shard, typed-failing fast."""
        results: list[Any] = [None] * n_shards
        pending = n_shards
        limit = (
            time.monotonic() + self.deadline
            if self.deadline is not None
            else None
        )
        while pending:
            if limit is not None and time.monotonic() > limit:
                self.shutdown()
                raise BarrierTimeoutError(self.deadline, pending, phase="gather")
            try:
                rank, job_id, index, ok, value = self._result_queue.get(
                    timeout=self._QUEUE_POLL
                )
            except queue_mod.Empty:
                self._check_liveness(pending)
                continue
            if job_id != self._job_id:  # stale result from an aborted job
                continue
            if not ok:
                # The worker survives a kernel failure (YGM handler-error
                # contract), so the pool stays up: leftover tasks of this
                # aborted job are flushed via the live-job cell and their
                # stale results dropped above.  Only death and timeout
                # tear the pool down.
                raise HandlerError(rank, value)
            results[index] = value
            pending -= 1
        return results

    def _check_liveness(self, pending: int) -> None:
        for rank, w in enumerate(self._workers):
            if not w.is_alive():
                exitcode = w.exitcode
                self.shutdown()
                raise WorkerDiedError(rank, exitcode, pending, phase="gather")
