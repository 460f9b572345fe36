"""Tests for the parallel executor: parity, queue round trips, pool
lifecycle, leak accounting, and the typed fault taxonomy."""

import os

import numpy as np
import pytest

from repro.exec import (
    PROJECTION_PLAN,
    SURVEY_PLAN,
    VALIDATION_PLAN,
    KernelStage,
    ParallelExecutor,
    Plan,
    SerialExecutor,
    leaked_shm_files,
    page_aligned_shards,
    position_range_shards,
    triplet_range_shards,
)
from repro.graph.edgelist import EdgeList
from repro.graph.ordering import degree_order
from repro.kernels import forward_adjacency, wedge_counts
from repro.ygm.errors import (
    BarrierTimeoutError,
    HandlerError,
    WorkerDiedError,
)
from repro.ygm.faults import FaultPlan

N_USERS = 40
N_PAGES = 15


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return set(a) == set(b) and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


@pytest.fixture(scope="module")
def plan_inputs():
    """One small corpus shaped into shards for all three plans."""
    rng = np.random.default_rng(23)
    n_rows = 600
    users = rng.integers(0, N_USERS, n_rows)
    pages = rng.integers(0, N_PAGES, n_rows)
    times = rng.integers(0, 600, n_rows)
    order = np.lexsort((times, pages))
    users, pages, times = users[order], pages[order], times[order]

    proj_ctx = {
        "delta1": 0,
        "delta2": 60,
        "pair_batch": 100_000,
        "n_users": N_USERS,
    }
    proj_shards = page_aligned_shards(users, pages, times, 5)

    red = SerialExecutor().run(PROJECTION_PLAN, proj_shards, proj_ctx)
    acc = EdgeList(red["ua"], red["ub"], red["w"]).accumulate()
    n = acc.max_vertex + 1
    rank = degree_order(acc, n)
    adj = forward_adjacency(acc.src, acc.dst, acc.weight, rank, n)
    counts, cum = wedge_counts(adj)
    survey_ctx = {"adj": adj, "counts": counts, "cum": cum}
    survey_shards = position_range_shards(
        counts, cum, max(1, int(cum[-1]) // 5)
    )

    trips = np.sort(rng.integers(0, N_USERS, (120, 3)), axis=1)
    indptr_l = [0]
    page_rows = []
    for _u in range(N_USERS):
        ps = np.unique(rng.integers(0, N_PAGES, 6))
        page_rows.append(ps)
        indptr_l.append(indptr_l[-1] + ps.shape[0])
    valid_ctx = {
        "indptr": np.asarray(indptr_l, dtype=np.int64),
        "page_ids": np.concatenate(page_rows).astype(np.int64),
    }
    valid_shards = triplet_range_shards(
        trips[:, 0], trips[:, 1], trips[:, 2], 5
    )

    return {
        "projection": (PROJECTION_PLAN, proj_shards, proj_ctx),
        "survey": (SURVEY_PLAN, survey_shards, survey_ctx),
        "validation": (VALIDATION_PLAN, valid_shards, valid_ctx),
    }


def _echo(shard, context):
    """Map kernel that sends its inputs straight back through the queue."""
    return shard, context


def _describe(shard, context):
    """Map kernel that reports what reached the worker as plain values."""
    return [(a.shape, a.dtype.str, a.tobytes()) for a in (shard, context["ctx"])]


def _build(shard, context):
    """Map kernel that creates its result on the worker from an index."""
    if context == "nested":
        n = int(shard)
        return {"w": np.arange(n), "parts": [(np.ones(2), 3)], "n": n}
    return AWKWARD_ARRAYS[shard]


ECHO_PLAN = Plan("echo", KernelStage("echo", f"{__name__}:_echo", "item"))
DESCRIBE_PLAN = Plan(
    "describe", KernelStage("describe", f"{__name__}:_describe", "item")
)
BUILD_PLAN = Plan("build", KernelStage("build", f"{__name__}:_build", "item"))

# Arrays that stress pickling through the pool's queues in both
# directions: plain dtypes, strided views and zero-size shapes.
ROUNDTRIP_ARRAYS = [
    np.arange(10, dtype=np.int64),
    np.linspace(0.0, 1.0, 7, dtype=np.float32),
    np.zeros((3, 4), dtype=np.uint32),
    np.array([], dtype=np.int64),
    np.array([True, False, True]),
    np.arange(20, dtype=np.int64)[::2],
    np.arange(12, dtype=np.float64).reshape(3, 4).T,
    np.arange(30, dtype=np.int32).reshape(5, 6)[1:4, 2:5],
    np.empty((0,), dtype=np.int64),
    np.empty((0, 3), dtype=np.float32),
]
ROUNDTRIP_IDS = [
    "int64", "float32", "2d", "empty", "bool",
    "strided", "transposed", "inner-slice", "zero-1d", "zero-2d",
]
AWKWARD_ARRAYS = ROUNDTRIP_ARRAYS[5:]
AWKWARD_IDS = ROUNDTRIP_IDS[5:]


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(2) as ex:
        yield ex
    assert leaked_shm_files() == ()


class TestRoundtrip:
    @pytest.mark.parametrize("array", ROUNDTRIP_ARRAYS, ids=ROUNDTRIP_IDS)
    def test_array_roundtrips_bit_identical(self, array):
        shards = [array, array[::-1], array]
        serial = SerialExecutor().run(ECHO_PLAN, shards, {"ctx": array})
        with ParallelExecutor(2) as ex:
            par = ex.run(ECHO_PLAN, shards, {"ctx": array})
        assert _equal(serial, par)
        for (s_shard, s_ctx), (p_shard, p_ctx) in zip(serial, par):
            for want, got in ((s_shard, p_shard), (s_ctx["ctx"], p_ctx["ctx"])):
                assert (got.shape, got.dtype) == (want.shape, want.dtype)

    def test_nested_shards_and_context_roundtrip(self):
        shards = [
            {"w": np.arange(4), "parts": [(np.ones(2), 3)], "n": 7},
            {"w": np.arange(0), "parts": [], "n": 0},
        ]
        ctx = {"nested": {"w": np.ones(2)}, "scalar": 7}
        serial = SerialExecutor().run(ECHO_PLAN, shards, ctx)
        with ParallelExecutor(2) as ex:
            assert _equal(serial, ex.run(ECHO_PLAN, shards, ctx))
        assert leaked_shm_files() == ()

    @pytest.mark.parametrize("array", AWKWARD_ARRAYS, ids=AWKWARD_IDS)
    def test_task_queue_delivers_array_intact(self, pool, array):
        shards = [array, array]
        serial = SerialExecutor().run(DESCRIBE_PLAN, shards, {"ctx": array})
        par = pool.run(DESCRIBE_PLAN, shards, {"ctx": array})
        assert par == serial
        assert par[0][0] == (array.shape, array.dtype.str, array.tobytes())

    @pytest.mark.parametrize("index", range(len(AWKWARD_IDS)), ids=AWKWARD_IDS)
    def test_result_queue_returns_array_intact(self, pool, index):
        want = AWKWARD_ARRAYS[index]
        serial = SerialExecutor().run(BUILD_PLAN, [index, index])
        par = pool.run(BUILD_PLAN, [index, index])
        assert _equal(serial, par)
        for got in par:
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert np.array_equal(got, want)

    def test_nested_results_roundtrip(self, pool):
        serial = SerialExecutor().run(BUILD_PLAN, [4, 0], "nested")
        par = pool.run(BUILD_PLAN, [4, 0], "nested")
        assert _equal(serial, par)
        assert np.array_equal(par[0]["w"], np.arange(4))
        assert par[0]["parts"][0][1] == 3 and par[1]["n"] == 0


class TestParity:
    @pytest.mark.parametrize("plan_name", ["projection", "survey", "validation"])
    def test_bit_identical_to_serial(self, plan_inputs, plan_name):
        plan, shards, ctx = plan_inputs[plan_name]
        serial = SerialExecutor().run(plan, shards, ctx)
        with ParallelExecutor(2) as ex:
            par = ex.run(plan, shards, ctx)
        assert _equal(serial, par)

    def test_uneven_shards_keep_order(self, plan_inputs):
        # 5 shards over 3 workers: ranks get 2/2/1 shards, and the gather
        # must still reduce in shard-index order.
        plan, shards, ctx = plan_inputs["projection"]
        assert len(shards) == 5
        serial = SerialExecutor().run(plan, shards, ctx)
        with ParallelExecutor(3) as ex:
            par = ex.run(plan, shards, ctx)
        assert _equal(serial, par)

    def test_empty_shard_list(self, plan_inputs):
        plan, _, ctx = plan_inputs["projection"]
        serial = SerialExecutor().run(plan, [], ctx)
        with ParallelExecutor(2) as ex:
            par = ex.run(plan, [], ctx)
        assert _equal(serial, par)


class TestPoolLifecycle:
    def test_pool_reused_across_plans(self, plan_inputs):
        with ParallelExecutor(2) as ex:
            first = None
            for plan_name in ("projection", "survey", "validation"):
                plan, shards, ctx = plan_inputs[plan_name]
                ex.run(plan, shards, ctx)
                pids = ex.worker_pids()
                if first is None:
                    first = pids
                assert pids == first, "pool respawned between plans"

    def test_shutdown_leaks_nothing(self, plan_inputs):
        plan, shards, ctx = plan_inputs["projection"]
        ex = ParallelExecutor(2)
        ex.run(plan, shards, ctx)
        pids = ex.worker_pids()
        assert len(pids) == 2
        ex.shutdown()
        assert not ex.alive
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert leaked_shm_files() == ()
        ex.shutdown()  # idempotent

    def test_pool_respawns_after_shutdown(self, plan_inputs):
        plan, shards, ctx = plan_inputs["projection"]
        serial = SerialExecutor().run(plan, shards, ctx)
        ex = ParallelExecutor(2)
        try:
            ex.run(plan, shards, ctx)
            old = ex.worker_pids()
            ex.shutdown()
            again = ex.run(plan, shards, ctx)
            assert _equal(serial, again)
            assert ex.worker_pids() != old
        finally:
            ex.shutdown()

    def test_dead_worker_between_runs_triggers_respawn(self, plan_inputs):
        # A worker that died while the pool sat idle must not be reused:
        # dispatching into a dead rank's queue would hang the next run.
        import signal
        import time

        plan, shards, ctx = plan_inputs["projection"]
        serial = SerialExecutor().run(plan, shards, ctx)
        ex = ParallelExecutor(2, deadline=30.0)
        try:
            ex.run(plan, shards, ctx)
            victim = ex.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while ex.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not ex.alive
            again = ex.run(plan, shards, ctx)
            assert _equal(serial, again)
            assert victim not in ex.worker_pids()
        finally:
            ex.shutdown()
        assert leaked_shm_files() == ()

    def test_repeated_runs_leave_no_shm_files(self, plan_inputs):
        before = leaked_shm_files()
        with ParallelExecutor(2) as ex:
            for plan_name in ("projection", "survey", "validation"):
                plan, shards, ctx = plan_inputs[plan_name]
                for _ in range(3):
                    ex.run(plan, shards, ctx)
        assert leaked_shm_files() == before


@pytest.mark.faults
class TestFaults:
    def test_crashed_worker_raises_typed_not_hangs(self, plan_inputs):
        plan, shards, ctx = plan_inputs["projection"]
        ex = ParallelExecutor(
            2,
            fault_plan=FaultPlan.single("crash", rank=0, at_message=1),
            join_deadline=0.5,
        )
        try:
            with pytest.raises(WorkerDiedError) as exc_info:
                ex.run(plan, shards, ctx)
            assert exc_info.value.rank == 0
            assert leaked_shm_files() == ()
        finally:
            ex.shutdown()

    def test_raising_kernel_surfaces_handler_error(self, plan_inputs):
        plan, shards, ctx = plan_inputs["projection"]
        ex = ParallelExecutor(
            2,
            fault_plan=FaultPlan.single("raise", rank=1, at_message=1),
            join_deadline=0.5,
        )
        try:
            with pytest.raises(HandlerError) as exc_info:
                ex.run(plan, shards, ctx)
            assert exc_info.value.rank == 1
        finally:
            ex.shutdown()

    def test_hang_bounded_by_deadline(self, plan_inputs):
        plan, shards, ctx = plan_inputs["projection"]
        ex = ParallelExecutor(
            2,
            fault_plan=FaultPlan.single("hang", rank=0, at_message=1),
            deadline=0.5,
            join_deadline=0.5,
        )
        try:
            with pytest.raises(BarrierTimeoutError):
                ex.run(plan, shards, ctx)
        finally:
            ex.shutdown()
        assert leaked_shm_files() == ()

    def test_delay_fault_changes_nothing(self, plan_inputs):
        plan, shards, ctx = plan_inputs["projection"]
        serial = SerialExecutor().run(plan, shards, ctx)
        with ParallelExecutor(
            2,
            fault_plan=FaultPlan.single(
                "delay", rank=0, at_message=1, seconds=0.05
            ),
        ) as ex:
            assert _equal(serial, ex.run(plan, shards, ctx))

    @pytest.mark.parametrize("at_message", [1, 2, 3])
    def test_crash_mid_batch_still_detected(self, plan_inputs, at_message):
        # One queue item now carries a rank's whole task list (5 shards
        # over 2 workers: rank 0 holds tasks 1..3).  The fault clock must
        # tick per *task*, so a crash can land mid-batch — and the driver
        # must still notice the death.
        plan, shards, ctx = plan_inputs["projection"]
        assert len(shards) == 5
        ex = ParallelExecutor(
            2,
            fault_plan=FaultPlan.single("crash", rank=0, at_message=at_message),
            join_deadline=0.5,
        )
        try:
            with pytest.raises(WorkerDiedError) as exc_info:
                ex.run(plan, shards, ctx)
            assert exc_info.value.rank == 0
        finally:
            ex.shutdown()
        assert leaked_shm_files() == ()

    @pytest.mark.parametrize("at_message", [2, 3])
    def test_raise_mid_batch_surfaces_handler_error(
        self, plan_inputs, at_message
    ):
        plan, shards, ctx = plan_inputs["projection"]
        serial = SerialExecutor().run(plan, shards, ctx)
        ex = ParallelExecutor(
            2,
            fault_plan=FaultPlan.single("raise", rank=0, at_message=at_message),
            join_deadline=0.5,
        )
        try:
            with pytest.raises(HandlerError) as exc_info:
                ex.run(plan, shards, ctx)
            assert exc_info.value.rank == 0
            # The aborted job's leftover tasks are flushed and its stale
            # results dropped: the same pool serves the next run.
            assert _equal(serial, ex.run(plan, shards, ctx))
        finally:
            ex.shutdown()
        assert leaked_shm_files() == ()

    def test_hang_mid_batch_bounded_by_deadline(self, plan_inputs):
        plan, shards, ctx = plan_inputs["projection"]
        ex = ParallelExecutor(
            2,
            fault_plan=FaultPlan.single("hang", rank=0, at_message=2),
            deadline=0.5,
            join_deadline=0.5,
        )
        try:
            with pytest.raises(BarrierTimeoutError):
                ex.run(plan, shards, ctx)
        finally:
            ex.shutdown()
        assert leaked_shm_files() == ()

    def test_executor_usable_after_failure(self, plan_inputs):
        # A raise fault leaves the worker alive with its delivery count
        # advanced past the fault, so the same pool must serve the next
        # run correctly.  (A crash fault would replay on the respawned
        # worker: delivery counts are per worker *process*.)
        plan, shards, ctx = plan_inputs["projection"]
        serial = SerialExecutor().run(plan, shards, ctx)
        ex = ParallelExecutor(
            2,
            fault_plan=FaultPlan.single("raise", rank=0, at_message=1),
            join_deadline=0.5,
        )
        try:
            with pytest.raises(HandlerError):
                ex.run(plan, shards, ctx)
            assert _equal(serial, ex.run(plan, shards, ctx))
        finally:
            ex.shutdown()
