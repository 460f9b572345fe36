"""Tests for the distributed containers (serial backend)."""

import pytest

from repro.ygm import DistBag, DistMap, YgmWorld
from repro.ygm.handlers import ygm_handler


@pytest.fixture()
def world():
    with YgmWorld(3) as w:
        yield w


# ---------------------------------------------------------------------------
# DistMap
# ---------------------------------------------------------------------------


@ygm_handler("tests.containers.visit_record")
def _visit_record(ctx, state, key, value, sink_cid):
    ctx.local_state(sink_cid).append((key, value))


@ygm_handler("tests.containers.visit_increment")
def _visit_increment(ctx, state, key, value, amount):
    state[key] = (value or 0) + amount


@ygm_handler("tests.containers.forall_collect")
def _forall_collect(ctx, state, key, value, sink_cid):
    ctx.local_state(sink_cid).append(key)


class TestDistMap:
    def test_insert_and_lookup(self, world):
        m = DistMap(world)
        m.async_insert("k", 42)
        assert m.lookup("k") == 42

    def test_lookup_missing_returns_default(self, world):
        m = DistMap(world)
        assert m.lookup("missing", default="d") == "d"

    def test_insert_overwrites(self, world):
        m = DistMap(world)
        m.async_insert("k", 1)
        world.barrier()
        m.async_insert("k", 2)
        assert m.lookup("k") == 2

    def test_insert_if_missing(self, world):
        m = DistMap(world)
        m.async_insert("k", 1)
        world.barrier()
        m.async_insert_if_missing("k", 99)
        m.async_insert_if_missing("fresh", 7)
        assert m.lookup("k") == 1
        assert m.lookup("fresh") == 7

    def test_erase(self, world):
        m = DistMap(world)
        m.async_insert("k", 1)
        world.barrier()
        m.async_erase("k")
        m.async_erase("never-there")
        assert m.lookup("k") is None

    def test_reduce_add(self, world):
        m = DistMap(world)
        for _ in range(4):
            m.async_reduce("k", 2, "ygm.op.add")
        assert m.lookup("k") == 8

    def test_reduce_max(self, world):
        m = DistMap(world)
        for v in (3, 9, 1):
            m.async_reduce("k", v, "ygm.op.max")
        assert m.lookup("k") == 9

    def test_reduce_batch_matches_singles(self, world):
        items = [(f"k{i % 5}", i) for i in range(20)]
        a, b = DistMap(world), DistMap(world)
        for k, v in items:
            a.async_reduce(k, v, "ygm.op.add")
        b.async_reduce_batch(items, "ygm.op.add")
        world.barrier()
        assert a.to_dict() == b.to_dict()

    def test_visit_sees_value_and_none(self, world):
        m = DistMap(world)
        sink = DistBag(world)
        m.async_insert("k", 5)
        world.barrier()
        m.async_visit("k", "tests.containers.visit_record", sink.container_id)
        m.async_visit("nope", "tests.containers.visit_record", sink.container_id)
        world.barrier()
        assert sorted(sink.gather()) == [("k", 5), ("nope", None)]

    def test_visit_can_mutate(self, world):
        m = DistMap(world)
        m.async_visit("c", "tests.containers.visit_increment", 3)
        m.async_visit("c", "tests.containers.visit_increment", 4)
        assert m.lookup("c") == 7

    def test_visit_or_create_inserts_default(self, world):
        m = DistMap(world)
        sink = DistBag(world)
        m.async_visit_or_create(
            "x", 100, "tests.containers.visit_record", sink.container_id
        )
        world.barrier()
        assert sink.gather() == [("x", 100)]
        assert m.lookup("x") == 100

    def test_lookup_many(self, world):
        m = DistMap(world)
        for i in range(10):
            m.async_insert(i, i * i)
        world.barrier()
        got = m.lookup_many([2, 5, 77])
        assert got == {2: 4, 5: 25}

    def test_for_all_visits_every_entry(self, world):
        m = DistMap(world)
        sink = DistBag(world)
        for i in range(9):
            m.async_insert(i, None)
        world.barrier()
        m.for_all("tests.containers.forall_collect", sink.container_id)
        assert sorted(sink.gather()) == list(range(9))

    def test_size_and_clear(self, world):
        m = DistMap(world)
        for i in range(7):
            m.async_insert(i, i)
        assert m.size() == 7
        m.clear()
        assert m.size() == 0

    def test_to_dict_gathers_all_shards(self, world):
        m = DistMap(world)
        expected = {i: i + 1 for i in range(20)}
        for k, v in expected.items():
            m.async_insert(k, v)
        assert m.to_dict() == expected


# ---------------------------------------------------------------------------
# DistBag
# ---------------------------------------------------------------------------


@ygm_handler("tests.containers.bag_double")
def _bag_double(ctx, item):
    return item * 2


@ygm_handler("tests.containers.bag_route")
def _bag_route(ctx, item, counter_cid):
    ctx.send(0, counter_cid, "ygm.map.reduce", (item % 2, 1, "ygm.op.add"))


class TestDistBag:
    def test_round_robin_insert_spreads(self, world):
        bag = DistBag(world)
        for i in range(9):
            bag.async_insert(i)
        assert bag.local_sizes() == [3, 3, 3]

    def test_insert_batch_preserves_count(self, world):
        bag = DistBag(world)
        bag.async_insert_batch(range(100))
        assert bag.size() == 100

    def test_gather_returns_all_items(self, world):
        bag = DistBag(world)
        bag.async_insert_batch(range(20))
        assert sorted(bag.gather()) == list(range(20))

    def test_map_gather(self, world):
        bag = DistBag(world)
        bag.async_insert_batch([1, 2, 3])
        assert sorted(bag.map_gather("tests.containers.bag_double")) == [2, 4, 6]

    def test_for_all_with_nested_sends(self, world):
        bag = DistBag(world)
        counter = DistMap(world)
        bag.async_insert_batch(range(10))
        world.barrier()
        bag.for_all("tests.containers.bag_route", counter.container_id)
        counts = counter.to_dict()
        assert counts == {0: 5, 1: 5}


class TestDistMapInsertBatch:
    def test_batch_matches_singles(self, world):
        items = [(i % 6, i) for i in range(24)]
        a, b = DistMap(world), DistMap(world)
        for k, v in items:
            a.async_insert(k, v)
            world.barrier()
        b.async_insert_batch(items)
        world.barrier()
        assert a.to_dict() == b.to_dict()

    def test_later_entry_wins_within_batch(self, world):
        m = DistMap(world)
        m.async_insert_batch([("k", 1), ("k", 2)])
        assert m.lookup("k") == 2

    def test_one_message_per_rank(self, world):
        m = DistMap(world)
        before = world.messages_delivered
        m.async_insert_batch([(i, i) for i in range(60)])
        world.barrier()
        assert world.messages_delivered - before <= world.n_ranks
