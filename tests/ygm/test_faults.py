"""The failure matrix: every fault kind must surface typed, never hang.

Each multiprocessing-backend test guards against regression to the
pre-fault-tolerance behaviour (silent infinite spin on the quiescence
counter) by running the barrier in a watchdog thread: on a backend without
dead-worker detection the thread never finishes and the test *fails* by
watchdog, instead of wedging the whole suite.
"""

import multiprocessing as mp
import threading
import time

import pytest

from repro.ygm import (
    BarrierTimeoutError,
    DistMap,
    ExecTimeoutError,
    FaultPlan,
    FaultSpec,
    HandlerError,
    WorkerDiedError,
    YgmWorld,
)
from repro.ygm.backend_mp import MultiprocessingBackend
from repro.ygm.faults import FaultInjector
from repro.ygm.handlers import ygm_handler

pytestmark = pytest.mark.faults

#: Outer watchdog for operations that must complete (or raise) promptly.
WATCHDOG = 30.0


def run_guarded(fn):
    """Run *fn* under a watchdog; return its exception (or None).

    Fails the test — rather than hanging it — if *fn* neither returns nor
    raises within ``WATCHDOG`` seconds, which is exactly how the pre-PR
    backend behaves when a worker dies mid-barrier.
    """
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(WATCHDOG)
    if t.is_alive():
        pytest.fail(
            f"operation still blocked after {WATCHDOG}s — the runtime hung "
            "instead of raising a typed error"
        )
    return box.get("error")


def fill(world, n_messages: int = 40):
    """Issue *n_messages* sum reductions, one message each (no barrier)."""
    counter = DistMap(world)
    for i in range(n_messages):
        counter.async_reduce(i % 5, 1, "ygm.op.add")
    return counter


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        assert FaultPlan.seeded(7, 4) == FaultPlan.seeded(7, 4)
        assert FaultPlan.seeded(7, 4).describe() == FaultPlan.seeded(7, 4).describe()

    def test_seeded_varies_with_seed(self):
        plans = {FaultPlan.seeded(s, 4) for s in range(16)}
        assert len(plans) > 4

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("melt", 0, 1)
        with pytest.raises(ValueError, match="at_message"):
            FaultSpec("crash", 0, 0)

    def test_injector_fires_at_nth_message(self):
        plan = FaultPlan.single("raise", rank=1, at_message=3)
        inj = FaultInjector(plan, rank=1)
        fired = [inj.next_fault() for _ in range(5)]
        assert [f.kind if f else None for f in fired] == [
            None, None, "raise", None, None,
        ]
        # Other ranks are untouched.
        other = FaultInjector(plan, rank=0)
        assert all(other.next_fault() is None for _ in range(5))


class TestMpFailureMatrix:
    def test_sigkill_mid_barrier_raises_worker_died(self):
        """The acceptance scenario: SIGKILL a worker, demand a typed error.

        On the pre-PR backend this test fails via the watchdog (the
        quiescence loop spins forever on a counter the dead worker will
        never decrement).
        """
        world = YgmWorld(
            2, backend="mp",
            fault_plan=FaultPlan.single("crash", rank=1, at_message=4),
        )
        try:
            fill(world)
            start = time.monotonic()
            exc = run_guarded(world.barrier)
            elapsed = time.monotonic() - start
            assert isinstance(exc, WorkerDiedError), exc
            assert exc.rank == 1
            assert exc.exitcode == -9
            assert exc.in_flight > 0
            assert "rank 1" in str(exc)
            assert elapsed < WATCHDOG / 2
        finally:
            world.shutdown()

    def test_externally_killed_worker_detected(self):
        """Same contract when the kill comes from outside (e.g. the OOM
        killer), not from an injected fault."""
        world = YgmWorld(2, backend="mp")
        try:
            counter = DistMap(world)
            world.barrier()
            world.backend._workers[0].kill()
            for i in range(40):
                counter.async_reduce(i % 5, 1, "ygm.op.add")
            exc = run_guarded(world.barrier)
            assert isinstance(exc, WorkerDiedError)
            assert exc.rank == 0
        finally:
            world.shutdown()

    def test_hang_hits_barrier_deadline(self):
        world = YgmWorld(
            2, backend="mp",
            fault_plan=FaultPlan.single("hang", rank=0, at_message=2),
            barrier_deadline=1.0,
        )
        try:
            fill(world, n_messages=10)
            exc = run_guarded(world.barrier)
            assert isinstance(exc, BarrierTimeoutError), exc
            assert exc.in_flight > 0
        finally:
            world.shutdown()

    def test_exec_deadline(self):
        world = YgmWorld(2, backend="mp", exec_deadline=0.5)
        try:
            exc = run_guarded(
                lambda: world.run_on_rank(0, "tests.faults.sleep_long")
            )
            assert isinstance(exc, ExecTimeoutError), exc
        finally:
            world.shutdown()

    def test_injected_raise_surfaces_as_handler_error(self):
        world = YgmWorld(
            2, backend="mp",
            fault_plan=FaultPlan.single("raise", rank=0, at_message=1),
        )
        try:
            m = DistMap(world)
            for i in range(10):  # enough keys that every rank owns some
                m.async_insert(f"k{i}", i)
            exc = run_guarded(world.barrier)
            assert isinstance(exc, HandlerError), exc
            assert "injected fault" in str(exc)
            # The fabric survived: the world keeps working afterwards.
            m.async_insert("after", 3)
            assert m.lookup("after") == 3
        finally:
            world.shutdown()

    def test_delay_does_not_change_results(self):
        plan = FaultPlan.single("delay", rank=0, at_message=1, seconds=0.05)
        with YgmWorld(2, backend="mp", fault_plan=plan) as world:
            counter = fill(world, n_messages=20)
            world.barrier()
            slow = counter.to_dict()
        with YgmWorld(2) as world:
            counter = fill(world, n_messages=20)
            world.barrier()
            assert counter.to_dict() == slow


class TestShutdownHygiene:
    def test_crashed_run_leaves_zero_live_children(self):
        """Regression for the shutdown leak: a failed run must reap every
        worker, including via the serial-join path the old code used."""
        world = YgmWorld(
            2, backend="mp",
            fault_plan=FaultPlan.single("crash", rank=1, at_message=2),
        )
        workers = list(world.backend._workers)
        fill(world)
        exc = run_guarded(world.barrier)
        assert isinstance(exc, WorkerDiedError)
        world.shutdown()
        assert all(not w.is_alive() for w in workers)
        assert not [p for p in mp.active_children() if p in workers]

    def test_shutdown_of_hung_world_is_concurrent_and_bounded(self):
        """A hung worker must cost one shared join deadline, not one per
        rank, and must be terminated rather than leaked."""
        backend = MultiprocessingBackend(
            3,
            fault_plan=FaultPlan.single("hang", rank=1, at_message=1),
            barrier_deadline=0.5,
            join_deadline=1.0,
        )
        world = YgmWorld(3, backend=backend)
        workers = list(backend._workers)
        fill(world, n_messages=9)
        exc = run_guarded(world.barrier)
        assert isinstance(exc, BarrierTimeoutError)
        start = time.monotonic()
        world.shutdown()
        elapsed = time.monotonic() - start
        # join_deadline + terminate grace, with headroom — the old
        # per-rank serial join would take >= 3 * join_deadline once more
        # than one rank is stuck.
        assert elapsed < 4.0, f"shutdown took {elapsed:.1f}s"
        assert all(not w.is_alive() for w in workers)

    def test_shutdown_idempotent_after_failure(self):
        world = YgmWorld(
            1, backend="mp",
            fault_plan=FaultPlan.single("crash", rank=0, at_message=1),
        )
        fill(world, n_messages=2)
        assert isinstance(run_guarded(world.barrier), WorkerDiedError)
        world.shutdown()
        world.shutdown()  # second call is a no-op, not an error


class TestSerialSimulation:
    def test_crash_simulated_as_worker_died(self):
        plan = FaultPlan.single("crash", rank=0, at_message=2)
        with YgmWorld(2, fault_plan=plan) as world:
            fill(world, n_messages=6)
            with pytest.raises(WorkerDiedError, match="rank 0"):
                world.barrier()

    def test_hang_simulated_as_barrier_timeout(self):
        plan = FaultPlan.single("hang", rank=1, at_message=1)
        with YgmWorld(2, fault_plan=plan) as world:
            fill(world, n_messages=6)
            with pytest.raises(BarrierTimeoutError):
                world.barrier()

    def test_raise_surfaces_as_handler_error(self):
        """Same typed surface as the mp backend's error queue."""
        plan = FaultPlan.single("raise", rank=0, at_message=1)
        with YgmWorld(2, fault_plan=plan) as world:
            m = DistMap(world)
            m.async_insert("k", 1)
            with pytest.raises(HandlerError, match="injected fault"):
                world.barrier()

    def test_delay_keeps_results_identical(self):
        plan = FaultPlan.single("delay", rank=0, at_message=1, seconds=0.01)
        with YgmWorld(2, fault_plan=plan) as world:
            counter = fill(world, n_messages=15)
            world.barrier()
            delayed = counter.to_dict()
        with YgmWorld(2) as world:
            counter = fill(world, n_messages=15)
            world.barrier()
            assert counter.to_dict() == delayed


@ygm_handler("tests.faults.sleep_long")
def _sleep_long(ctx, payload):
    time.sleep(30)
