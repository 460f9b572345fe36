"""Tests for the multiprocessing backend.

Kept small (worker startup costs dominate on a 1-core box); the heavy
semantic coverage lives in the serial-backend tests and the cross-backend
equivalence checks here and in the integration suite.
"""

import time

import pytest

from repro.ygm import DistMap, YgmWorld
from repro.ygm.backend_mp import MultiprocessingBackend
from repro.ygm.errors import HandlerError


def _answer(ctx, payload):
    """Exec fn: rank 0 answers (or fails) at once, other ranks 0.1 s late."""
    tag, fail = payload
    if ctx.rank == 0 and fail:
        raise ValueError("rank 0 gives up")
    if ctx.rank != 0:
        time.sleep(0.1)
    return tag, ctx.rank


@pytest.fixture(scope="module")
def mp_world():
    world = YgmWorld(2, backend="mp")
    yield world
    world.shutdown()


class TestMultiprocessingBackend:
    def test_map_reduce_matches_serial(self, mp_world):
        items = [(i % 7, 1) for i in range(60)]

        def run(world):
            m = DistMap(world)
            for k, v in items:
                m.async_reduce(k, v, "ygm.op.add")
            world.barrier()
            out = m.to_dict()
            m.release()
            return out

        with YgmWorld(2) as serial_world:
            expected = run(serial_world)
        assert run(mp_world) == expected

    def test_nested_sends_quiesce(self, mp_world):
        from repro.graph.components import distributed_components
        from repro.graph.edgelist import EdgeList

        labels = distributed_components(
            EdgeList([0, 1, 5], [1, 2, 6]), mp_world
        )
        assert labels == {0: 0, 1: 0, 2: 0, 5: 5, 6: 5}

    def test_shutdown_idempotent(self):
        be = MultiprocessingBackend(1)
        be.shutdown()
        be.shutdown()

    def test_send_after_shutdown_raises(self):
        be = MultiprocessingBackend(1)
        be.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            be.send(0, "x", "ygm.map.insert", ("k", 1))

    def test_exec_error_propagates(self, mp_world):
        with pytest.raises(RuntimeError, match="exec failed"):
            mp_world.run_on_rank(0, "ygm.container.local_size", "no-such-cid")

    def test_failed_exec_leaves_no_result_for_the_next(self, mp_world):
        # Rank 0's failure is reported while rank 1 still computes; rank
        # 1's late answer belongs to the failed exec, not the next one.
        with pytest.raises(RuntimeError, match="exec failed"):
            mp_world.run_on_all(_answer, ("old", True))
        got = mp_world.run_on_all(_answer, ("new", False))
        assert got == [("new", 0), ("new", 1)]

    def test_exec_error_is_a_handler_error_naming_its_rank(self, mp_world):
        with pytest.raises(HandlerError, match="exec failed") as exc_info:
            mp_world.run_on_all(_answer, ("old", True))
        assert exc_info.value.rank == 0
        assert "rank 0 gives up" in exc_info.value.detail
