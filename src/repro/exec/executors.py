"""Executors: run one :class:`~repro.exec.plan.Plan` locally or over YGM.

Every executor honors the same contract — map every shard through the
plan's map kernel, order the partials by shard index, then run the
optional reduce kernel driver-side — so an engine written against
``executor.run(plan, shards, context)`` is backend-agnostic by
construction.  That symmetry is what the parity harness leans on: runs
differ only in *where* map shards execute, never in *what* executes.

What *does* depend on where shards run lives here too, so engines and
the pipeline hold no per-backend code: ``shard_count(n_items,
items_per_second)`` sizes a plan's shard list, ``close()`` releases what
the executor owns, and :class:`YgmExecutor` retries a failed run on a
fresh world.

:class:`YgmExecutor` scatters ``(index, shard)`` items into a
:class:`~repro.ygm.containers.bag.DistBag` and maps them with
``DistBag.map_gather``, which ships the kernel reference and context
once per rank (not once per shard).  The map function travels as a plain
module-level callable — pickled by reference and re-imported on the
worker — so it resolves even on worker processes forked before
:mod:`repro.exec` was first imported.  :class:`ParallelExecutor` is a
:class:`YgmExecutor` that owns its world: forked workers of the
multiprocessing backend, one rank per core, kept warm across plans.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Sequence, cast

from repro.exec.plan import Plan, resolve_kernel
from repro.exec.plans import adaptive_shard_count
from repro.ygm.backend_mp import MultiprocessingBackend
from repro.ygm.errors import BarrierTimeoutError, WorkerDiedError, YgmError
from repro.ygm.faults import FaultPlan
from repro.ygm.world import YgmWorld

__all__ = ["SerialExecutor", "YgmExecutor", "ParallelExecutor", "finish_reduce"]

#: Shards per YGM rank: >1 so uneven pages, skewed wedges and ragged
#: triplet ranges still balance; fixed (not cost-adaptive) so the message
#: stream seeded fault plans key on does not depend on the input size.
_SHARDS_PER_RANK = 4


def _map_item(
    ctx: Any, item: tuple[int, Any], kernel_ref: str, context: Any
) -> tuple[int, Any]:
    """Per-item map shim run on whichever rank holds the bag item.

    ``item`` is ``(index, shard)``; the index rides along so the driver
    can restore shard order after the unordered gather.
    """
    index, shard = item
    return index, resolve_kernel(kernel_ref)(shard, context)


def finish_reduce(plan: Plan, partials: list[Any], context: Any) -> Any:
    """The shared gather/reduce tail every executor ends a run with.

    ``partials`` must already be ordered by shard index; the reduce
    kernel sees the caller's original context object.  Centralizing this
    is what makes "bit-identical across executors" true by construction:
    backends may differ in where map shards run, never in how the
    partials are folded.
    """
    if plan.reduce_stage is None:
        return partials
    return plan.reduce_stage.resolve()(partials, context)


class SerialExecutor:
    """Run a plan in-process, one shard at a time, in shard order."""

    def shard_count(self, n_items: int, items_per_second: float) -> int:
        """Always one shard: splitting in-process work only adds merges."""
        return 1

    def run(self, plan: Plan, shards: Sequence[Any], context: Any = None) -> Any:
        """Map every shard through the plan, then reduce driver-side."""
        kernel = plan.map_stage.resolve()
        partials = [kernel(shard, context) for shard in shards]
        return finish_reduce(plan, partials, context)

    def close(self) -> None:
        """Nothing to release."""


class YgmExecutor:
    """Run a plan's map stage across the ranks of a YGM world.

    Pass exactly one of:

    world:
        A borrowed :class:`~repro.ygm.world.YgmWorld`: the caller
        controls its lifetime (and backend/fault plan), so one world can
        execute many plans — a pipeline run sends all three through it.
        A typed failure propagates; :meth:`close` leaves it alone.
    world_factory:
        ``factory(attempt) -> YgmWorld``, called with ``0`` for a run's
        first world and ``k`` for the *k*-th retry of a run; the
        executor owns these worlds.  The first is built by the first
        run, and one that is shut down or has lost a worker is rebuilt
        before the next; a worker death or barrier timeout tears it down
        before the error propagates, and :meth:`close` shuts it down.
        With ``max_retries > 0``, a run failing with a typed
        :class:`~repro.ygm.errors.YgmError` (worker death, barrier
        timeout, handler error) tears the failed world down, sleeps
        ``retry_backoff * 2**k`` seconds and re-attempts the *same*
        shards on a fresh world — they live in the driver, so one plan
        run is the only work at risk.  :attr:`retries` counts them.
    """

    def __init__(
        self,
        world: YgmWorld | None = None,
        *,
        world_factory: Callable[[int], YgmWorld] | None = None,
        max_retries: int = 0,
        retry_backoff: float = 0.1,
    ) -> None:
        if (world is None) == (world_factory is None):
            raise ValueError("pass exactly one of `world` or `world_factory`")
        self._factory = world_factory
        self.world = world
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retries = 0

    def shard_count(self, n_items: int, items_per_second: float) -> int:
        """A fixed number of shards per rank, whatever the input size."""
        return int(self._live_world().n_ranks) * _SHARDS_PER_RANK

    def run(self, plan: Plan, shards: Sequence[Any], context: Any = None) -> Any:
        """Scatter shards over ranks, map remotely, reduce driver-side."""
        for k in range(self.max_retries):
            try:
                return self._run_once(plan, shards, context)
            except YgmError:
                if self._factory is None:  # borrowed world: not ours to replace
                    raise
                # The failed world may hold dead workers or undrained
                # queues: tear it down (best effort, bounded) and back
                # off before the fresh attempt.
                self.close()
                self.retries += 1
                time.sleep(self.retry_backoff * (2**k))
                self.world = self._factory(k + 1)
        return self._run_once(plan, shards, context)

    def _live_world(self) -> YgmWorld:
        """The world to run on; an owned one is (re)built when missing,
        shut down, or short of a worker."""
        factory, world = self._factory, self.world
        if factory is not None and (world is None or not world.backend.alive):
            self.close()
            world = self.world = factory(0)
        assert world is not None  # a borrowed world is never dropped
        return world

    def _run_once(self, plan: Plan, shards: Sequence[Any], context: Any) -> Any:
        from repro.ygm.containers.bag import DistBag

        world = self._live_world()
        bag = DistBag(world)
        try:
            # One message per shard (not one batch per rank): keeps the
            # per-rank delivery stream fine-grained, so fault plans keyed
            # on message counts retain a realistic injection surface.
            for item in enumerate(shards):
                bag.async_insert(item)
            world.barrier()
            gathered = bag.map_gather(_map_item, plan.map_stage.kernel, context)
        except (WorkerDiedError, BarrierTimeoutError):
            if self._factory is not None:
                # An owned world that lost a worker or hung goes down
                # now; releasing the bag first would only wait on it a
                # second time.
                world.backend.shutdown()
            raise
        finally:
            bag.release()
        gathered.sort(key=lambda pair: pair[0])
        partials = [partial for _index, partial in gathered]
        return finish_reduce(plan, partials, context)

    def close(self) -> None:
        """Shut down the current world if this executor built it."""
        if self._factory is not None and self.world is not None:
            world, self.world = self.world, None
            try:
                world.shutdown()
            except Exception:  # pragma: no cover - shutdown is best-effort
                pass


class ParallelExecutor(YgmExecutor):
    """Run plans on forked worker processes kept warm across plans.

    A :class:`YgmExecutor` owning its world: ``n_workers`` ranks of the
    :class:`~repro.ygm.backend_mp.MultiprocessingBackend`, started by
    ``__enter__``, the first :meth:`run` or :meth:`worker_pids`, and
    reused by every plan until :meth:`shutdown`.  Shards are sized by
    cost (:func:`~repro.exec.plans.adaptive_shard_count`), not by the
    fixed count per rank that seeded fault plans need.  A raising kernel
    surfaces as :class:`~repro.ygm.errors.HandlerError` and leaves the
    workers up.

    Parameters
    ----------
    n_workers:
        Worker count; ``None`` uses ``os.cpu_count()``.
    fault_plan:
        Optional :class:`~repro.ygm.faults.FaultPlan`; each worker's
        message clock ticks once per shard it receives.
    deadline:
        Seconds any one barrier or result wait may block before raising
        :class:`~repro.ygm.errors.BarrierTimeoutError`.  ``None`` waits
        forever — dead workers are still detected by liveness polling;
        the deadline exists to catch hangs.
    join_deadline:
        Seconds the workers get, together, to exit on shutdown before
        they are terminated, then killed.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        deadline: float | None = None,
        join_deadline: float = 5.0,
    ) -> None:
        n = self.n_workers = max(1, int(n_workers or os.cpu_count() or 1))

        def spawn(attempt: int) -> YgmWorld:
            return YgmWorld(
                backend=MultiprocessingBackend(
                    n,
                    barrier_deadline=deadline,
                    exec_deadline=deadline,
                    join_deadline=join_deadline,
                    fault_plan=fault_plan,
                )
            )

        super().__init__(world_factory=spawn)

    def shard_count(self, n_items: int, items_per_second: float) -> int:
        """Cost-adaptive: ~100 ms of work per shard, ≥ 1 per worker."""
        return adaptive_shard_count(n_items, self.n_workers, items_per_second)

    @property
    def alive(self) -> bool:
        """Whether the workers are running, every one of them."""
        return self.world is not None and self.world.backend.alive

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live workers (starting them if needed)."""
        backend = cast(MultiprocessingBackend, self._live_world().backend)
        return backend.worker_pids()

    shutdown = YgmExecutor.close

    def __enter__(self) -> "ParallelExecutor":
        self._live_world()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
