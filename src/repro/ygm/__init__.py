"""A YGM-style asynchronous message-passing runtime with distributed containers.

The paper implements every stage of its framework on top of YGM [Priest et
al. 2019], an MPI-based C++ library whose programming model is:

* data structures are *partitioned* across ranks by an owner function;
* computation is expressed as *asynchronous visits* — closures shipped to
  the rank that owns a datum, which may themselves issue further visits;
* progress is punctuated by *barriers* that deliver all in-flight messages
  until the system is quiescent.

This package reproduces that model in Python so the paper's distributed
algorithms (projection, triangle surveying, hypergraph validation) can be
expressed exactly as they are in the original system:

- :class:`repro.ygm.world.YgmWorld` — the communicator facade: ranks,
  barriers, collectives, container registry.
- :mod:`repro.ygm.backend` — the deterministic in-process ``serial``
  backend (rank mailboxes drained round-robin) used by default and in tests.
- :mod:`repro.ygm.backend_mp` — a ``multiprocessing`` backend with real
  worker processes, queue transports, and counter-based quiescence
  detection, demonstrating that the same programs run unmodified on a
  process-parallel substrate (mirroring the mpi4py idioms from the HPC
  guides: named, picklable handlers instead of closures).
- :mod:`repro.ygm.containers` — ``DistBag`` (the plans' task bag) and
  ``DistMap`` (distributed connected components).

Scale note: the original runs on LLNL clusters; here the value of the
runtime is *algorithmic fidelity* — owner-hash partitioning and
visit-until-quiescent semantics — not wall-clock speedup (see DESIGN.md §2).
"""

from repro.ygm.world import YgmWorld, ygm_world
from repro.ygm.handlers import ygm_handler, resolve_handler
from repro.ygm.errors import (
    BarrierTimeoutError,
    ExecTimeoutError,
    HandlerError,
    WorkerDiedError,
    YgmError,
)
from repro.ygm.faults import FaultPlan, FaultSpec, InjectedFault
from repro.ygm import reductions  # noqa: F401 — registers the named ygm.op.* handlers
from repro.ygm.partition import HashPartitioner
from repro.ygm.containers import DistBag, DistMap

__all__ = [
    "YgmWorld",
    "ygm_world",
    "ygm_handler",
    "resolve_handler",
    "YgmError",
    "HandlerError",
    "WorkerDiedError",
    "BarrierTimeoutError",
    "ExecTimeoutError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "HashPartitioner",
    "DistBag",
    "DistMap",
]
