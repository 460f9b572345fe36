"""Executors on a multiprocessing world: a raising kernel is a typed,
recoverable error, and a dead or hung world is gone before its error
reaches the caller."""

import os
from contextlib import contextmanager

import pytest

from repro.exec import (
    KernelStage,
    ParallelExecutor,
    Plan,
    SerialExecutor,
    YgmExecutor,
    leaked_shm_files,
)
from repro.ygm import YgmWorld
from repro.ygm.errors import BarrierTimeoutError, HandlerError, WorkerDiedError
from repro.ygm.faults import FaultPlan

pytestmark = pytest.mark.faults


def _double_or_raise(shard, context):
    """Map kernel raising on the shard the context names."""
    if shard == context:
        raise ValueError(f"kernel refuses shard {shard}")
    return shard * 2


PLAN = Plan("double", KernelStage("double", f"{__name__}:_double_or_raise", "item"))
SHARDS = [0, 1, 2, 3]


@contextmanager
def _on_mp_world(kind):
    if kind == "parallel":
        with ParallelExecutor(2) as ex:
            yield ex
    else:
        with YgmWorld(2, backend="mp") as world:
            yield YgmExecutor(world)


@pytest.mark.parametrize("kind", ["parallel", "ygm"])
def test_raising_kernel_is_a_handler_error_and_the_world_survives(kind):
    want = SerialExecutor().run(PLAN, SHARDS)
    with _on_mp_world(kind) as ex:
        with pytest.raises(HandlerError, match="exec failed") as exc_info:
            ex.run(PLAN, SHARDS, 1)  # shards go round-robin: 1 is rank 1's
        assert exc_info.value.rank == 1
        assert "kernel refuses shard 1" in str(exc_info.value)
        assert ex.run(PLAN, SHARDS) == want
    assert leaked_shm_files() == ()


@pytest.mark.parametrize(
    "fault, error",
    [("crash", WorkerDiedError), ("hang", BarrierTimeoutError)],
)
def test_fatal_error_tears_the_world_down_before_it_propagates(fault, error):
    ex = ParallelExecutor(
        2,
        fault_plan=FaultPlan.single(fault, rank=0, at_message=1),
        deadline=0.5,
        join_deadline=0.5,
    )
    pids = ex.worker_pids()
    try:
        with pytest.raises(error):
            ex.run(PLAN, SHARDS)
        assert not ex.alive
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert leaked_shm_files() == ()
    finally:
        ex.shutdown()
