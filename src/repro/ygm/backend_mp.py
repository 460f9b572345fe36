"""Multiprocessing backend: real worker processes, queue transports.

Each rank is a forked worker process holding its own container state and
draining a :class:`multiprocessing.Queue`.  Workers send nested messages by
putting directly onto the destination rank's queue, so the communication
topology matches an MPI job (any rank to any rank, no central router).

Quiescence (barrier) uses a shared outstanding-message counter: the counter
is incremented *before* a message is enqueued and decremented only *after*
the handler finishes (by which point any nested sends it issued have
already incremented the counter).  The counter therefore reaches zero only
when no message is queued or executing — the classic credit-based
termination-detection argument.

Failure is a first-class behaviour, not an accident: every blocking wait in
the driver (quiescence poll, exec-result wait, error drain) doubles as a
liveness check, so a worker killed mid-message raises a typed
:class:`~repro.ygm.errors.WorkerDiedError` instead of spinning forever on a
counter no survivor will ever decrement.  Optional deadlines bound the
barrier and exec waits (:class:`~repro.ygm.errors.BarrierTimeoutError` /
:class:`~repro.ygm.errors.ExecTimeoutError`).  A function that raises in
an exec surfaces as :class:`~repro.ygm.errors.HandlerError` naming its
rank, like a raising message handler, and leaves the world up.  The fault
hook, the orphan guard (a worker exits once its driver is gone, even
after a SIGKILL) and the :meth:`shutdown` ladder (join → terminate →
kill, concurrently across ranks) are the ones every forked family
shares, from :mod:`repro.util.procs`, so even a wedged world is torn
down in bounded time without leaking children.  A
:class:`~repro.ygm.faults.FaultPlan` can be injected at construction to
rehearse all of the above deterministically.

Constraints inherited from pickling (the same constraints mpi4py imposes on
object communication): handler references must be registered names or
module-level functions, and payloads must be picklable.  Every handler in
this library satisfies both, so all distributed algorithms run unmodified
on this backend; the cross-backend equivalence tests exercise exactly that.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from typing import Any

from repro.util.procs import apply_fault, parent_gone, stop
from repro.ygm.backend import Backend, HandlerContext
from repro.ygm.errors import (
    BarrierTimeoutError,
    ExecTimeoutError,
    HandlerError,
    WorkerDiedError,
)
from repro.ygm.faults import FaultInjector, FaultPlan
from repro.ygm.handlers import handler_ref as _wire, resolve_handler

__all__ = ["MultiprocessingBackend"]

_STOP = "stop"
_CREATE = "create"
_DESTROY = "destroy"
_MSG = "msg"
_EXEC = "exec"


def _worker_main(
    rank: int,
    n_ranks: int,
    queues: list,
    outstanding,
    result_queue,
    error_queue,
    error_count,
    fault_plan,
    parent_pid: int,
) -> None:
    """Worker process entry point: drain this rank's queue until STOP.

    Handler exceptions do not kill the worker: they are reported to the
    driver through *error_queue* (raised at the next barrier), so a
    failing message cannot silently wedge or tear down the world.  A
    worker whose driver is gone (even SIGKILLed) exits on its own.
    """
    states: dict[str, Any] = {}
    injector = (
        FaultInjector(fault_plan, rank) if fault_plan is not None else None
    )

    def nested_send(target_rank: int, container_id: str, href: Any, payload: Any) -> None:
        with outstanding.get_lock():
            outstanding.value += 1
        queues[target_rank].put((_MSG, container_id, _wire(href), payload))

    ctx = HandlerContext(rank, n_ranks, nested_send, states)
    my_queue = queues[rank]
    while True:
        try:
            item = my_queue.get(timeout=1.0)
        except queue_mod.Empty:
            if parent_gone(parent_pid):
                return
            continue
        kind = item[0]
        try:
            if kind == _STOP:
                return
            if kind == _CREATE:
                _, container_id, factory_ref = item
                states[container_id] = resolve_handler(factory_ref)(rank)
            elif kind == _DESTROY:
                states.pop(item[1], None)
            elif kind == _MSG:
                _, container_id, href, payload = item
                try:
                    fault = injector.next_fault() if injector else None
                    if fault is not None:
                        apply_fault(fault)
                    resolve_handler(href)(ctx, states[container_id], payload)
                except Exception as exc:
                    # Count first, then enqueue: the driver reads the
                    # counter and waits on the queue for exactly that
                    # many reports, so no error can be missed to queue
                    # visibility lag.
                    with error_count.get_lock():
                        error_count.value += 1
                    error_queue.put((rank, f"{href!r}: {exc!r}"))
            elif kind == _EXEC:
                _, seq, fn_ref, payload = item
                try:
                    result = resolve_handler(fn_ref)(ctx, payload)
                    result_queue.put((rank, seq, True, result))
                except Exception as exc:  # surface worker errors to driver
                    result_queue.put((rank, seq, False, repr(exc)))
        finally:
            if kind != _STOP:
                with outstanding.get_lock():
                    outstanding.value -= 1


class MultiprocessingBackend(Backend):
    """Process-parallel backend (see module docstring).

    Parameters
    ----------
    n_ranks:
        Worker process count (forked).
    barrier_deadline:
        Seconds a single :meth:`run_until_quiescent` may block before
        raising :class:`BarrierTimeoutError`.  ``None`` (default) waits
        forever — dead workers are still detected via liveness polling;
        the deadline exists to catch *hangs*, where everyone is alive but
        nobody finishes.
    exec_deadline:
        Same, for the :meth:`run_on_rank`/:meth:`run_on_all` result wait
        (:class:`ExecTimeoutError`).
    join_deadline:
        Seconds :meth:`shutdown` grants all workers *collectively* to exit
        on their own before escalating to terminate, then kill.
    fault_plan:
        Optional :class:`~repro.ygm.faults.FaultPlan` shipped to every
        worker for deterministic failure rehearsal.
    """

    #: Seconds between quiescence polls; short because barriers are frequent.
    _POLL = 0.0005
    #: Seconds between liveness re-checks while blocked on a queue.
    _QUEUE_POLL = 0.05

    def __init__(
        self,
        n_ranks: int,
        *,
        barrier_deadline: float | None = None,
        exec_deadline: float | None = None,
        join_deadline: float = 5.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be positive, got {n_ranks}")
        self.n_ranks = int(n_ranks)
        self.barrier_deadline = barrier_deadline
        self.exec_deadline = exec_deadline
        self.join_deadline = float(join_deadline)
        self._ctx = mp.get_context("fork")
        self._queues = [self._ctx.Queue() for _ in range(self.n_ranks)]
        self._outstanding = self._ctx.Value("q", 0)
        self._result_queue = self._ctx.Queue()
        self._error_queue = self._ctx.Queue()
        self._error_count = self._ctx.Value("q", 0)
        self._sent = 0
        self._exec_seq = 0
        self._alive = True
        self._workers = [
            self._ctx.Process(
                target=_worker_main,
                args=(
                    rank,
                    self.n_ranks,
                    self._queues,
                    self._outstanding,
                    self._result_queue,
                    self._error_queue,
                    self._error_count,
                    fault_plan if fault_plan else None,
                    os.getpid(),
                ),
                daemon=True,
            )
            for rank in range(self.n_ranks)
        ]
        for w in self._workers:
            w.start()

    # -- container state ----------------------------------------------------
    def create_state(self, container_id: str, factory_ref: Any) -> None:
        for rank in range(self.n_ranks):
            self._enqueue(rank, (_CREATE, container_id, _wire(factory_ref)))
        self.run_until_quiescent()

    def destroy_state(self, container_id: str) -> None:
        if not self._alive:
            return
        for rank in range(self.n_ranks):
            self._enqueue(rank, (_DESTROY, container_id))
        self.run_until_quiescent()

    # -- messaging ----------------------------------------------------------
    def send(self, target_rank: int, container_id: str, handler_ref: Any, payload: Any) -> None:
        if not 0 <= target_rank < self.n_ranks:
            raise IndexError(f"rank {target_rank} out of range (size {self.n_ranks})")
        self._enqueue(target_rank, (_MSG, container_id, _wire(handler_ref), payload))

    def _enqueue(self, rank: int, item: tuple) -> None:
        if not self._alive:
            raise RuntimeError("backend has been shut down")
        with self._outstanding.get_lock():
            self._outstanding.value += 1
        self._queues[rank].put(item)
        self._sent += 1

    def run_until_quiescent(self) -> None:
        # Credit-based quiescence: zero outstanding ⇒ nothing queued or
        # executing anywhere (see module docstring for the argument).
        deadline = (
            time.monotonic() + self.barrier_deadline
            if self.barrier_deadline is not None
            else None
        )
        while True:
            with self._outstanding.get_lock():
                if self._outstanding.value == 0:
                    self._raise_pending_errors()
                    return
            self._check_workers(phase="barrier")
            if deadline is not None and time.monotonic() > deadline:
                raise BarrierTimeoutError(
                    self.barrier_deadline, self._in_flight(), phase="barrier"
                )
            time.sleep(self._POLL)

    def _in_flight(self) -> int:
        with self._outstanding.get_lock():
            return int(self._outstanding.value)

    def _raise_pending_errors(self) -> None:
        """Surface handler exceptions reported by workers."""
        with self._error_count.get_lock():
            n_errors = self._error_count.value
            self._error_count.value = 0
        if n_errors == 0:
            return
        # The counter was incremented before each enqueue, so exactly
        # n_errors reports are (or will be) in the queue — wait for them,
        # but keep checking liveness: a rank that died after counting but
        # before enqueueing would otherwise wedge this drain forever.
        errors = []
        while len(errors) < n_errors:
            try:
                errors.append(self._error_queue.get(timeout=self._QUEUE_POLL))
            except queue_mod.Empty:
                self._check_liveness(phase="error-drain")
        rank, detail = errors[0]
        raise HandlerError(rank, detail, n_errors=len(errors))

    def _check_liveness(self, phase: str) -> None:
        for rank, w in enumerate(self._workers):
            if not w.is_alive():
                raise WorkerDiedError(
                    rank, w.exitcode, self._in_flight(), phase
                )

    def _check_workers(self, phase: str = "barrier") -> None:
        self._raise_pending_errors()
        self._check_liveness(phase)

    # -- synchronous execution ----------------------------------------------
    def run_on_rank(self, rank: int, fn_ref: Any, payload: Any = None) -> Any:
        results = self._exec_on([rank], fn_ref, payload)
        return results[rank]

    def run_on_all(self, fn_ref: Any, payload: Any = None) -> list[Any]:
        results = self._exec_on(list(range(self.n_ranks)), fn_ref, payload)
        return [results[r] for r in range(self.n_ranks)]

    def _exec_on(self, ranks: list[int], fn_ref: Any, payload: Any) -> dict[int, Any]:
        self.run_until_quiescent()
        # Each exec is tagged: one that failed on its first rank leaves the
        # slower ranks' results behind, and the next exec must drop them.
        self._exec_seq += 1
        for rank in ranks:
            if not 0 <= rank < self.n_ranks:
                raise IndexError(f"rank {rank} out of range (size {self.n_ranks})")
            self._enqueue(rank, (_EXEC, self._exec_seq, _wire(fn_ref), payload))
        deadline = (
            time.monotonic() + self.exec_deadline
            if self.exec_deadline is not None
            else None
        )
        results: dict[int, Any] = {}
        while len(results) < len(ranks):
            self._check_workers(phase="exec")
            if deadline is not None and time.monotonic() > deadline:
                raise ExecTimeoutError(
                    self.exec_deadline, len(ranks) - len(results)
                )
            try:
                rank, seq, ok, value = self._result_queue.get(
                    timeout=self._QUEUE_POLL
                )
            except queue_mod.Empty:
                continue
            if seq != self._exec_seq:
                continue
            if not ok:
                raise HandlerError(rank, f"exec failed: {value}")
            results[rank] = value
        return results

    @property
    def messages_delivered(self) -> int:
        return self._sent

    @property
    def alive(self) -> bool:
        """Whether the world is up with every worker still running."""
        return self._alive and all(w.is_alive() for w in self._workers)

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the worker processes, in rank order."""
        return tuple(w.pid for w in self._workers)

    def shutdown(self) -> None:
        """Tear the world down in bounded time, never raising, never leaking.

        STOP to every queue (best effort — a full or broken queue is
        skipped, the ladder handles its owner), then
        :func:`repro.util.procs.stop`'s ladder across all ranks at once
        (a crashed run must not pay ``join_deadline`` once per rank),
        then close every queue and cancel its feeder join so the driver
        can exit even with undelivered buffered data.
        """
        if not self._alive:
            return
        self._alive = False
        for q in self._queues:
            try:
                q.put_nowait((_STOP,))
            except Exception:  # full/broken queue: escalation handles it
                pass
        stop(self._workers, self.join_deadline)
        for q in [*self._queues, self._result_queue, self._error_queue]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - defensive
                pass

    def __del__(self) -> None:  # pragma: no cover - best effort cleanup
        try:
            self.shutdown()
        except Exception:
            pass
