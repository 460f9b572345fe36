"""Stateful property test: the serve engine against the batch oracle.

A hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.serve.DetectionEngine` through ingests (out-of-order
times, equal timestamps, one author's repeats on a page, filtered
authors, late arrivals), window advances, compactions and snapshot →
:func:`~repro.store.restore_engine_state` round trips.  After every step
the engine must match a from-scratch
:class:`~repro.pipeline.framework.CoordinationPipeline` run over the live
comments on all four views :mod:`repro.verify.online` compares (CI
edges, ``P'``, triplets, components), and the projector's raw
observation count must equal :func:`~repro.projection.project`'s.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow, project
from repro.serve import DetectionEngine
from repro.store import engine_state_arrays, restore_engine_state
from repro.verify.online import _check

pytestmark = pytest.mark.serve

#: "AutoModerator" is dropped by the author filter on both sides.
AUTHORS = ("a", "b", "c", "d", "AutoModerator")
PAGES = ("p", "q", "r")

events = st.lists(
    st.tuples(
        st.sampled_from(AUTHORS),
        st.sampled_from(PAGES),
        # A coarse grid makes equal timestamps common.
        st.integers(0, 24).map(lambda k: 5 * k),
    ),
    min_size=1,
    max_size=10,
)


class EngineMachine(RuleBasedStateMachine):
    """One engine, the live comments it must hold, and the oracle."""

    @initialize(
        window=st.sampled_from([(0, 20), (0, 0), (5, 25), (10, 10)]),
        cutoff=st.sampled_from([1, 2]),
        compact_min=st.sampled_from([1, 1024]),
    )
    def start(self, window, cutoff, compact_min):
        self.config = PipelineConfig(
            window=TimeWindow(*window),
            min_triangle_weight=cutoff,
            min_component_size=2,
            compute_hypergraph=True,
            author_filter=AuthorFilter(exact_names=frozenset({"AutoModerator"})),
        )
        self.engine = DetectionEngine(
            self.config, compact_ratio=1.0, compact_min=compact_min
        )
        self.live: list[tuple[str, str, int]] = []
        self.step = 0

    @rule(batch=events)
    def ingest(self, batch):
        cut = self.engine.evict_cutoff
        self.engine.ingest(batch)
        self.live += [e for e in batch if cut is None or e[2] >= cut]

    @rule(cutoff=st.integers(0, 130))
    def advance(self, cutoff):
        self.engine.advance(cutoff)
        cut = self.engine.evict_cutoff
        self.live = [e for e in self.live if e[2] >= cut]

    @rule()
    def compact(self):
        self.engine.compact()

    @rule()
    def snapshot_and_restore(self):
        arrays, meta = engine_state_arrays(self.engine)
        self.engine = restore_engine_state(arrays, meta, self.config)

    @invariant()
    def matches_batch_oracle(self):
        if not hasattr(self, "engine"):
            return
        self.step += 1
        assert _check(f"step {self.step}", self.config, self.live, self.engine) == []
        proj = self.engine.proj
        full = project(proj.to_btm(), self.config.window)
        assert proj.raw_pair_observations() == full.stats["pair_observations"]
        assert proj.ci_graph().edges.to_dict() == full.ci.edges.to_dict()


EngineMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineMachine = EngineMachine.TestCase
