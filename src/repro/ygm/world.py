"""The YGM world: ranks, barriers, collectives, and the container registry.

:class:`YgmWorld` is the single object user code holds.  It is a *driver*
facade: the program issues asynchronous operations against distributed
containers and punctuates them with :meth:`YgmWorld.barrier`, exactly
mirroring how a YGM C++ program alternates ``async_*`` calls with
``comm.barrier()``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.ygm.backend import Backend, SerialBackend
from repro.ygm.handlers import ygm_handler

__all__ = ["YgmWorld", "ygm_world"]

_world_counter = itertools.count()


@ygm_handler("ygm.world.eval")
def _eval_fn(ctx, payload):
    """Exec shim: run ``fn(ctx, arg)`` where payload is ``(fn_ref, arg)``."""
    from repro.ygm.handlers import resolve_handler

    fn_ref, arg = payload
    return resolve_handler(fn_ref)(ctx, arg)


class YgmWorld:
    """A communicator over ``n_ranks`` ranks with a pluggable backend.

    Parameters
    ----------
    n_ranks:
        World size.  On the serial backend this is purely logical; on the
        multiprocessing backend it is the number of worker processes.
    backend:
        ``"serial"`` (default; deterministic, in-process) or ``"mp"``
        (forked worker processes).  An already constructed
        :class:`~repro.ygm.backend.Backend` may also be passed.
    fault_plan:
        Optional :class:`~repro.ygm.faults.FaultPlan` for deterministic
        failure injection (both string backends accept it).
    barrier_deadline / exec_deadline:
        Liveness deadlines in seconds, forwarded to the ``"mp"`` backend
        (ignored by ``"serial"``, which cannot hang).  See
        :mod:`repro.ygm.errors` for the exceptions they arm.

    Examples
    --------
    >>> from repro.ygm import YgmWorld, DistMap
    >>> world = YgmWorld(n_ranks=4)
    >>> counts = DistMap(world)
    >>> for word in ["a", "b", "a"]:
    ...     counts.async_reduce(word, 1, "ygm.op.add")
    >>> world.barrier()
    >>> counts.to_dict()["a"]
    2
    >>> world.shutdown()
    """

    def __init__(
        self,
        n_ranks: int = 4,
        backend: str | Backend = "serial",
        *,
        fault_plan=None,
        barrier_deadline: float | None = None,
        exec_deadline: float | None = None,
    ) -> None:
        if isinstance(backend, Backend):
            self._backend = backend
        elif backend == "serial":
            self._backend = SerialBackend(n_ranks, fault_plan=fault_plan)
        elif backend == "mp":
            from repro.ygm.backend_mp import MultiprocessingBackend

            self._backend = MultiprocessingBackend(
                n_ranks,
                fault_plan=fault_plan,
                barrier_deadline=barrier_deadline,
                exec_deadline=exec_deadline,
            )
        else:
            raise ValueError(
                f"unknown backend {backend!r}; expected 'serial' or 'mp'"
            )
        self._container_ids: set[str] = set()
        self._id_counter = itertools.count()
        self._world_id = next(_world_counter)

    # -- basic properties ----------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """World size."""
        return self._backend.n_ranks

    @property
    def backend(self) -> Backend:
        """The underlying backend (for diagnostics and advanced use)."""
        return self._backend

    @property
    def messages_delivered(self) -> int:
        """Total messages the backend has carried (diagnostics)."""
        return self._backend.messages_delivered

    # -- container registry ---------------------------------------------------
    def register_container(self, kind: str, factory_ref: Any) -> str:
        """Allocate a container id and create its per-rank state everywhere."""
        container_id = f"w{self._world_id}.{kind}.{next(self._id_counter)}"
        self._backend.create_state(container_id, factory_ref)
        self._container_ids.add(container_id)
        return container_id

    def release_container(self, container_id: str) -> None:
        """Destroy a container's state on every rank."""
        if container_id in self._container_ids:
            self._backend.destroy_state(container_id)
            self._container_ids.discard(container_id)

    # -- messaging -------------------------------------------------------------
    def async_send(
        self, target_rank: int, container_id: str, handler_ref: Any, payload: Any
    ) -> None:
        """Queue a message for *target_rank* (driver-side entry point)."""
        self._backend.send(target_rank, container_id, handler_ref, payload)

    def barrier(self) -> None:
        """Deliver all in-flight messages (including nested sends)."""
        self._backend.run_until_quiescent()

    # -- collectives -------------------------------------------------------------
    def run_on_rank(self, rank: int, fn_ref: Any, arg: Any = None) -> Any:
        """Synchronously run ``fn(ctx, arg)`` on one rank and return its result."""
        return self._backend.run_on_rank(rank, "ygm.world.eval", (fn_ref, arg))

    def run_on_all(self, fn_ref: Any, arg: Any = None) -> list[Any]:
        """Synchronously run ``fn(ctx, arg)`` on every rank; list of results."""
        return self._backend.run_on_all("ygm.world.eval", (fn_ref, arg))

    def all_reduce(self, fn_ref: Any, op: Callable[[Any, Any], Any], arg: Any = None) -> Any:
        """Reduce per-rank values ``fn(ctx, arg)`` with binary *op*."""
        values = self.run_on_all(fn_ref, arg)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    # -- lifecycle ----------------------------------------------------------------
    def shutdown(self) -> None:
        """Release all containers and stop backend workers (idempotent).

        Teardown is best-effort: on a world whose backend already failed
        (dead worker, timed-out barrier), container release would only
        re-raise the original fault, so it is skipped and the backend is
        shut down regardless — a failed run must never leak processes.
        """
        try:
            for container_id in list(self._container_ids):
                self.release_container(container_id)
        except Exception:
            self._container_ids.clear()
        finally:
            self._backend.shutdown()

    def __enter__(self) -> "YgmWorld":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"YgmWorld(n_ranks={self.n_ranks}, "
            f"backend={type(self._backend).__name__})"
        )


@contextmanager
def ygm_world(
    n_ranks: int = 4, backend: str | Backend = "serial", **kwargs: Any
) -> Iterator[YgmWorld]:
    """Context manager constructing and tearing down a :class:`YgmWorld`."""
    world = YgmWorld(n_ranks=n_ranks, backend=backend, **kwargs)
    try:
        yield world
    finally:
        world.shutdown()
