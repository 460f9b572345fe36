"""Shared-memory parallel executor: one plan, many cores, zero copies.

:class:`ParallelExecutor` is the third executor of the plan layer.  Like
:class:`~repro.exec.executors.SerialExecutor` it maps every shard through
the plan's kernel and reduces driver-side in shard order, so results are
bit-identical by construction; unlike it, shards run on a **persistent
pool of worker processes** that stays warm across plans — the pipeline
runs projection, survey, and validation through one pool.

Data movement is the design center, in both directions:

- Inputs travel through :class:`~repro.exec.shm.ShmArena`: every shard
  and context array is published once into ``/dev/shm`` and dispatched
  as a tiny :class:`~repro.exec.shm.ShmRef`; workers map the segments
  read-only-in-spirit (no copy).
- Dispatch is **batched**: each worker receives *one* queue item per
  job carrying its whole ``(index, shard_refs)`` task list, so queue
  traffic is per-worker, not per-shard, and the worker resolves the
  plan's ``"module:attr"`` kernel ref and materializes the shared
  context once per job instead of once per shard.
- Outputs travel through shared memory too: workers publish result
  arrays into per-worker output segments
  (:class:`~repro.exec.shm.OutputWriter`) and send back only tiny ref
  descriptors; the driver claims each result as it arrives
  (:func:`~repro.exec.shm.claim_output` — copy out, unlink), overlapping
  its copies with the workers' remaining compute.  Nothing large is ever
  pickled through a pipe.

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
jobs without ever touching their (already unlinked) input arena, and the
driver discards stale published outputs the moment it sees them.  After
any typed failure requiring teardown, the same bounded escalation ladder
as the YGM backend applies (STOP → join deadline → terminate → kill,
queues closed) followed by a sweep of orphaned output segments; shutdown
leaks neither children nor ``/dev/shm`` segments.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import time
from typing import Any, Sequence

from repro.exec.executors import finish_reduce
from repro.exec.plan import Plan, resolve_kernel
from repro.exec.plans import adaptive_shard_count
from repro.exec.shm import (
    OutputWriter,
    SegmentCache,
    ShmArena,
    claim_output,
    disown_resource_tracking,
    discard_output,
    materialize,
    output_prefix,
    sweep_segments,
)
from repro.ygm.errors import (
    BarrierTimeoutError,
    HandlerError,
    WorkerDiedError,
)
from repro.ygm.faults import HANG_SECONDS, FaultInjector, FaultPlan

__all__ = ["ParallelExecutor"]

_STOP = None

#: Job-generation value meaning "no job is live" (workers skip tasks).
_NO_JOB = 0


def _pool_worker(
    rank: int, task_queue, result_queue, fault_plan, live_job, out_prefix
) -> None:
    """Worker loop: drain batched jobs until STOP.

    One queue item carries one job's whole task list for this worker.
    The kernel ref is resolved and the context materialized once per
    batch; the fault injector ticks once per *task* so message-count
    fault plans are batching-invariant.  Kernel exceptions are reported,
    not fatal: the worker stays alive for the next job (mirroring the
    YGM handler-error contract).  Tasks whose job is no longer the live
    one (the driver aborted it) are skipped without attaching to the
    input arena — its segments are already unlinked.
    """
    disown_resource_tracking()
    injector = (
        FaultInjector(fault_plan, rank) if fault_plan is not None else None
    )
    writer = OutputWriter(out_prefix)
    while True:
        item = task_queue.get()
        if item is _STOP:
            return
        job_id, kernel_ref, context_refs, tasks = item
        kernel = None
        context = None
        have_context = False
        cache = SegmentCache()
        try:
            for index, shard_refs in tasks:
                fault = injector.next_fault() if injector is not None else None
                if fault is not None:
                    if fault.kind == "crash":
                        os.kill(os.getpid(), signal.SIGKILL)
                    elif fault.kind == "hang":
                        time.sleep(HANG_SECONDS)
                    elif fault.kind == "delay":
                        time.sleep(fault.seconds)
                    elif fault.kind == "raise":
                        result_queue.put(
                            (rank, job_id, index, False,
                             f"injected fault: {fault.describe()}")
                        )
                        continue
                if job_id != live_job.value:  # aborted job: flush, don't churn
                    continue
                try:
                    if kernel is None:
                        kernel = resolve_kernel(kernel_ref)
                    if not have_context:
                        context = materialize(context_refs, cache)
                        have_context = True
                    shard = materialize(shard_refs, cache)
                    payload = writer.share(kernel(shard, context))
                    del shard
                except Exception as exc:
                    result_queue.put(
                        (rank, job_id, index, False, f"{kernel_ref}: {exc!r}")
                    )
                    continue
                result_queue.put((rank, job_id, index, True, payload))
        finally:
            del context
            cache.close()


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
        self._out_prefix = output_prefix()

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
                      self._fault_plan, self._live_job, self._out_prefix),
                daemon=True,
            )
            for rank in range(self.n_workers)
        ]
        for w in self._workers:
            w.start()

    def shutdown(self) -> None:
        """Tear the pool down in bounded time, never raising, never leaking.

        Same escalation ladder as the YGM multiprocessing backend: STOP to
        every queue → shared join deadline → terminate → kill → close
        queues — then sweep any output segments the dead workers left
        unclaimed.  Idempotent; ``run`` respawns a fresh pool afterwards.
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
        self._join_all(workers, self.join_deadline)
        for w in workers:
            if w.is_alive():
                w.terminate()
        self._join_all(workers, 1.0)
        for w in workers:
            if w.is_alive():  # pragma: no cover - needs SIGTERM-immune worker
                try:
                    w.kill()
                except Exception:
                    pass
        self._join_all(workers, 1.0)
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
        # Workers are gone: anything still under this driver's output
        # prefix was published but never claimed (aborted job, crash
        # between publish and report) and has no owner left.
        sweep_segments(self._out_prefix)

    close = shutdown

    @staticmethod
    def _join_all(workers, deadline: float) -> None:
        limit = time.monotonic() + deadline
        while any(w.is_alive() for w in workers):
            if time.monotonic() > limit:
                return
            time.sleep(0.01)
        for w in workers:
            w.join(timeout=0)

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
        round-robin); each worker receives its whole task list as one
        batched queue item.  Inputs ride through a per-run
        :class:`~repro.exec.shm.ShmArena`, outputs come back through
        per-worker output segments; the reduce stage sees the original
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
                with ShmArena() as arena:
                    context_refs = arena.share(context)
                    kernel_ref = plan.map_stage.kernel
                    batches: list[list] = [[] for _ in range(self.n_workers)]
                    for index, shard in enumerate(shards):
                        batches[index % self.n_workers].append(
                            (index, arena.share(shard))
                        )
                    for rank, tasks in enumerate(batches):
                        if tasks:
                            self._task_queues[rank].put(
                                (self._job_id, kernel_ref, context_refs, tasks)
                            )
                    partials = self._gather(len(shards))
            except BaseException:
                # Flush the aborted job: workers skip its leftover tasks
                # (never attaching to the now-unlinked arena) instead of
                # churning through attach failures.
                if self._live_job is not None:
                    self._live_job.value = _NO_JOB
                raise
        return finish_reduce(plan, partials, context)

    def _gather(self, n_shards: int) -> list[Any]:
        """Collect one result per dispatched shard, typed-failing fast.

        Results are claimed (copied out of shared memory, segments
        unlinked) as they arrive, so driver-side copies overlap worker
        compute and no segment outlives its consumption.
        """
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
                if ok:
                    discard_output(value)
                continue
            if not ok:
                # The worker survives a kernel failure (YGM handler-error
                # contract), so the pool stays up: leftover tasks of this
                # aborted job are flushed via the live-job cell, stale
                # results it already published are discarded above.  Only
                # death and timeout tear the pool down.
                raise HandlerError(rank, value)
            results[index] = claim_output(value)
            pending -= 1
        return results

    def _check_liveness(self, pending: int) -> None:
        for rank, w in enumerate(self._workers):
            if not w.is_alive():
                exitcode = w.exitcode
                self.shutdown()
                raise WorkerDiedError(rank, exitcode, pending, phase="gather")
