"""Model-based property tests: containers vs plain-dict reference models.

Hypothesis drives random operation sequences against a distributed
container and an in-process model simultaneously; after a barrier the
gathered container state must equal the model.  This catches ordering and
ownership bugs that example-based tests miss.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ygm import DistMap, YgmWorld

# Operation alphabets ------------------------------------------------------

_map_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 9), st.integers(-5, 5)),
        st.tuples(st.just("reduce_add"), st.integers(0, 9), st.integers(-5, 5)),
        st.tuples(st.just("reduce_max"), st.integers(0, 9), st.integers(-5, 5)),
        st.tuples(st.just("erase"), st.integers(0, 9), st.just(0)),
        st.tuples(
            st.just("insert_if_missing"), st.integers(0, 9), st.integers(-5, 5)
        ),
    ),
    max_size=40,
)


class TestDistMapModel:
    @settings(max_examples=30, deadline=None)
    @given(ops=_map_ops, n_ranks=st.integers(1, 4))
    def test_matches_dict_model(self, ops, n_ranks):
        model: dict[int, int] = {}
        with YgmWorld(n_ranks) as world:
            dmap = DistMap(world)
            for op, key, value in ops:
                if op == "insert":
                    dmap.async_insert(key, value)
                    world.barrier()  # sequential semantics for the model
                    model[key] = value
                elif op == "reduce_add":
                    dmap.async_reduce(key, value, "ygm.op.add")
                    world.barrier()
                    model[key] = model.get(key, 0) + value if key in model else value
                elif op == "reduce_max":
                    dmap.async_reduce(key, value, "ygm.op.max")
                    world.barrier()
                    model[key] = max(model[key], value) if key in model else value
                elif op == "erase":
                    dmap.async_erase(key)
                    world.barrier()
                    model.pop(key, None)
                elif op == "insert_if_missing":
                    dmap.async_insert_if_missing(key, value)
                    world.barrier()
                    model.setdefault(key, value)
            assert dmap.to_dict() == model

    @settings(max_examples=20, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.integers(0, 9), st.integers(-3, 3)), max_size=40
        ),
        n_ranks=st.integers(1, 4),
    )
    def test_commutative_reductions_order_free(self, items, n_ranks):
        """Sum reductions need no barriers between ops: any interleaving
        yields the same result (commutativity is what makes the async
        projection correct)."""
        model: dict[int, int] = {}
        for key, value in items:
            model[key] = model.get(key, 0) + value
        with YgmWorld(n_ranks) as world:
            dmap = DistMap(world)
            for key, value in items:
                dmap.async_reduce(key, value, "ygm.op.add")
            world.barrier()
            assert dmap.to_dict() == model
