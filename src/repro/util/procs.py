"""Process lifecycle shared by every forked worker family.

The YGM multiprocessing backend (whose worlds the parallel executor also
runs on) and the serving supervisor's child both fork workers; they
share one orphan guard and one teardown ladder from here:

- :func:`apply_fault` manifests a :class:`~repro.ygm.faults.FaultSpec`
  inside a YGM worker;
- :func:`parent_gone` is the orphan guard: a worker blocked on its input
  polls with a timeout and exits once its driver is gone, because
  ``daemon=True`` only reaps children on a *clean* driver exit;
- :func:`stop` tears a set of processes down in bounded time.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing.process import BaseProcess
from typing import Sequence

from repro.ygm.faults import HANG_SECONDS, FaultSpec, InjectedFault

__all__ = ["apply_fault", "parent_gone", "stop"]


def apply_fault(fault: FaultSpec) -> None:
    """Manifest *fault* in this worker (see :mod:`repro.ygm.faults`)."""
    if fault.kind == "crash":
        # Die the way an OOM kill does: no cleanup, no report, no
        # goodbye.  The driver's liveness check must pick up the pieces.
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.kind == "hang":
        # Stall inside the task: only a deadline (or the teardown
        # ladder) resolves this.
        time.sleep(HANG_SECONDS)
    elif fault.kind == "delay":
        time.sleep(fault.seconds)
    elif fault.kind == "raise":
        raise InjectedFault(f"injected fault: {fault.describe()}")


def parent_gone(parent_pid: int) -> bool:
    """Whether the driver that forked this process (*parent_pid*) is gone."""
    return os.getppid() != parent_pid


def _join(procs: Sequence[BaseProcess], deadline: float) -> None:
    limit = time.monotonic() + deadline
    while any(p.is_alive() for p in procs) and time.monotonic() < limit:
        time.sleep(0.01)
    for p in procs:  # reap exit statuses of whoever is down
        p.join(timeout=0)


def stop(procs: Sequence[BaseProcess], join_deadline: float) -> None:
    """Join *procs* under one shared deadline, then terminate, then kill.

    The caller has already asked them to exit.  Every rung applies to
    all survivors at once, so a wedged set costs one deadline, not one
    per process; SIGKILL catches a worker stuck in native code that
    ignores SIGTERM.  Never raises.
    """
    _join(procs, join_deadline)
    for rung in ("terminate", "kill"):
        live = [p for p in procs if p.is_alive()]
        if not live:
            return
        for p in live:
            try:
                getattr(p, rung)()
            except Exception:  # pragma: no cover - already reaped
                pass
        _join(live, 1.0)
