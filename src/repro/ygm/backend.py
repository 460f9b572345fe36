"""Backend protocol and the deterministic serial backend.

A backend owns the per-rank container state and the message fabric.  The
message calling convention (shared by all backends) is::

    handler(ctx, state, payload)

where ``ctx`` is a :class:`HandlerContext` bound to the executing rank
(through which handlers issue *nested* asynchronous sends, exactly as YGM
lambdas do), ``state`` is the local state of the addressed container on
that rank, and ``payload`` is an arbitrary picklable value.

The serial backend keeps one mailbox (deque) per rank and drains them
round-robin, one message per rank per turn.  This is single-process and
therefore adds no parallelism, but it is *deterministic*: the same program
produces the same interleaving every run, which makes it the default for
tests and for all library algorithms (whose results are interleaving-
independent — a property the cross-backend tests check against the
multiprocessing backend).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.ygm.handlers import resolve_handler

__all__ = ["HandlerContext", "Backend", "SerialBackend"]


class HandlerContext:
    """Execution context passed to every handler.

    Attributes
    ----------
    rank:
        The rank the handler is executing on.
    n_ranks:
        World size.
    """

    __slots__ = ("rank", "n_ranks", "_send", "_states")

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        send: Callable[[int, str, Any, Any], None],
        states: dict[str, Any],
    ) -> None:
        self.rank = rank
        self.n_ranks = n_ranks
        self._send = send
        self._states = states

    def send(self, target_rank: int, container_id: str, handler_ref: Any, payload: Any) -> None:
        """Issue a nested asynchronous message to *target_rank*."""
        self._send(target_rank, container_id, handler_ref, payload)

    def local_state(self, container_id: str) -> Any:
        """Local state of another container on this rank.

        YGM visitors routinely touch several containers that share a rank
        (e.g. a map visitor appending results into a bag); this is the
        escape hatch that enables that pattern.
        """
        return self._states[container_id]


class Backend:
    """Abstract backend interface (see module docstring for semantics)."""

    n_ranks: int

    def create_state(self, container_id: str, factory_ref: Any) -> None:
        """Create per-rank local state: ``factory(rank)`` on every rank."""
        raise NotImplementedError

    def destroy_state(self, container_id: str) -> None:
        """Discard a container's state on every rank."""
        raise NotImplementedError

    def send(self, target_rank: int, container_id: str, handler_ref: Any, payload: Any) -> None:
        """Enqueue a message from the driver."""
        raise NotImplementedError

    def run_until_quiescent(self) -> None:
        """Deliver messages (including nested sends) until none remain."""
        raise NotImplementedError

    def run_on_rank(self, rank: int, fn_ref: Any, payload: Any = None) -> Any:
        """Synchronously execute ``fn(ctx, payload)`` on *rank*; return result."""
        raise NotImplementedError

    def run_on_all(self, fn_ref: Any, payload: Any = None) -> list[Any]:
        """Synchronously execute ``fn(ctx, payload)`` on every rank."""
        return [self.run_on_rank(r, fn_ref, payload) for r in range(self.n_ranks)]

    def shutdown(self) -> None:
        """Release backend resources (idempotent)."""

    @property
    def alive(self) -> bool:
        """Whether every rank can still take messages.

        The in-process backend always can; one with worker processes
        cannot once it is shut down or has lost a worker.
        """
        return True

    # -- statistics ---------------------------------------------------------
    @property
    def messages_delivered(self) -> int:
        """Total messages processed since construction (diagnostics)."""
        raise NotImplementedError


class SerialBackend(Backend):
    """Deterministic single-process backend with round-robin mailboxes.

    Accepts a :class:`~repro.ygm.faults.FaultPlan` like the multiprocessing
    backend does; kinds that have no single-process equivalent (``crash``,
    ``hang``) are simulated by raising the same typed error the driver
    would see from a real worker, so pipeline retry/resume policy can be
    exercised deterministically without forking.
    """

    def __init__(self, n_ranks: int, *, fault_plan=None) -> None:
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be positive, got {n_ranks}")
        self.n_ranks = int(n_ranks)
        self._mailboxes: list[deque] = [deque() for _ in range(self.n_ranks)]
        # _states[container_id][rank] -> local state
        self._states: dict[str, list[Any]] = {}
        self._delivered = 0
        # Per-handler delivery counts: the communication profile of a run
        # (which algorithms send what), keyed by registered handler name.
        self._handler_counts: dict[str, int] = {}
        self._injectors = None
        if fault_plan is not None and fault_plan:
            from repro.ygm.faults import FaultInjector

            self._injectors = [
                FaultInjector(fault_plan, rank) for rank in range(self.n_ranks)
            ]

    # -- container state ----------------------------------------------------
    def create_state(self, container_id: str, factory_ref: Any) -> None:
        if container_id in self._states:
            raise ValueError(f"container already exists: {container_id!r}")
        factory = resolve_handler(factory_ref)
        self._states[container_id] = [factory(rank) for rank in range(self.n_ranks)]

    def destroy_state(self, container_id: str) -> None:
        self._states.pop(container_id, None)

    # -- messaging ----------------------------------------------------------
    def send(self, target_rank: int, container_id: str, handler_ref: Any, payload: Any) -> None:
        if not 0 <= target_rank < self.n_ranks:
            raise IndexError(f"rank {target_rank} out of range (size {self.n_ranks})")
        self._mailboxes[target_rank].append((container_id, handler_ref, payload))

    def run_until_quiescent(self) -> None:
        mailboxes = self._mailboxes
        # Round-robin: one message per rank per sweep, until all are empty.
        # Nested sends issued by handlers land in these same mailboxes and
        # are drained by subsequent sweeps.
        while True:
            any_work = False
            for rank in range(self.n_ranks):
                box = mailboxes[rank]
                if box:
                    any_work = True
                    container_id, handler_ref, payload = box.popleft()
                    self._dispatch(rank, container_id, handler_ref, payload)
            if not any_work:
                return

    def _dispatch(self, rank: int, container_id: str, handler_ref: Any, payload: Any) -> None:
        if self._injectors is not None:
            self._apply_fault(rank)
        try:
            states_view = {
                cid: per_rank[rank] for cid, per_rank in self._states.items()
            }
            state = states_view[container_id]
        except KeyError:
            raise KeyError(f"no such container on rank {rank}: {container_id!r}") from None
        ctx = HandlerContext(rank, self.n_ranks, self.send, states_view)
        resolve_handler(handler_ref)(ctx, state, payload)
        self._delivered += 1
        key = handler_ref if isinstance(handler_ref, str) else getattr(
            handler_ref, "__ygm_name__", repr(handler_ref)
        )
        self._handler_counts[key] = self._handler_counts.get(key, 0) + 1

    def _apply_fault(self, rank: int) -> None:
        """Manifest the fault due at this rank's next message, if any.

        ``delay`` sleeps for real (plans are tiny); ``raise`` surfaces as
        the same :class:`HandlerError` the multiprocessing backend's error
        queue would report; ``crash``/``hang`` raise the typed error a
        real dead/stalled worker would produce on the driver.
        """
        import time

        from repro.ygm.errors import (
            BarrierTimeoutError,
            HandlerError,
            WorkerDiedError,
        )

        fault = self._injectors[rank].next_fault()
        if fault is None:
            return
        if fault.kind == "delay":
            time.sleep(fault.seconds)
        elif fault.kind == "raise":
            raise HandlerError(
                rank, f"InjectedFault: injected fault: {fault.describe()}", 1
            )
        elif fault.kind == "crash":
            raise WorkerDiedError(
                rank, -9, sum(len(b) for b in self._mailboxes) + 1, "barrier"
            )
        elif fault.kind == "hang":
            raise BarrierTimeoutError(
                0.0, sum(len(b) for b in self._mailboxes) + 1, "barrier"
            )

    # -- synchronous execution ----------------------------------------------
    def run_on_rank(self, rank: int, fn_ref: Any, payload: Any = None) -> Any:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range (size {self.n_ranks})")
        states_view = {cid: per_rank[rank] for cid, per_rank in self._states.items()}
        ctx = HandlerContext(rank, self.n_ranks, self.send, states_view)
        return resolve_handler(fn_ref)(ctx, payload)

    @property
    def messages_delivered(self) -> int:
        return self._delivered

    def handler_counts(self) -> dict[str, int]:
        """Messages delivered per handler name (communication profile)."""
        return dict(self._handler_counts)

    def shutdown(self) -> None:
        self._mailboxes = [deque() for _ in range(self.n_ranks)]
        self._states.clear()
