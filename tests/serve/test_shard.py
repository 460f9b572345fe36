"""Tests for the sharded serving tier: routing, merges, parity, faults."""

import zlib

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline.config import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import (
    DetectionService,
    ShardUnavailableError,
    ShardedDetectionService,
    shard_of,
)
from repro.serve.shard import (
    merge_components,
    merge_topk,
    merged_component_of,
)
from repro.verify import run_sharded_parity
from repro.verify.chaos import diff_results

pytestmark = pytest.mark.serve

CONFIG = PipelineConfig(
    window=TimeWindow(0, 120),
    min_triangle_weight=1,
    min_component_size=2,
    author_filter=AuthorFilter.none(),
    compute_hypergraph=True,
)


def stream(n=400):
    """In-order events (timestamp order keeps final state topology-free)."""
    return [("u%d" % (i % 18), "p%d" % (i % 6), i) for i in range(n)]


def make_tier(n_shards=2, directory=None, **kw):
    kw.setdefault("window_horizon", 10_000)
    kw.setdefault("batch_size", 32)
    kw.setdefault("forward_batch", 64)
    kw.setdefault("heartbeat_timeout", 20.0)
    kw.setdefault("backoff_base", 0.01)
    return ShardedDetectionService(
        CONFIG, n_shards=n_shards, directory=directory, **kw
    )


def oracle_service(events):
    svc = DetectionService(CONFIG, window_horizon=10_000, batch_size=32)
    svc.run_events(events)
    return svc


class TestShardOf:
    def test_is_stable_crc32(self):
        # The routing rule is part of the wire contract: clients and
        # gateways must agree across processes and releases.
        assert shard_of("alice", 4) == zlib.crc32(b"alice") % 4
        assert shard_of("bob", 7) == zlib.crc32(b"bob") % 7

    def test_single_shard_short_circuits(self):
        assert shard_of("anyone", 1) == 0
        assert shard_of("anyone", 0) == 0

    def test_range_and_coverage(self):
        sids = {shard_of("user%d" % i, 4) for i in range(1000)}
        assert sids == {0, 1, 2, 3}

    def test_non_ascii_authors(self):
        assert 0 <= shard_of("ユーザー", 3) < 3


class TestMergeTopK:
    def rows(self, *pairs):
        return [{"authors": a, "t": t} for a, t in pairs]

    def test_exact_merge_order(self):
        s0 = self.rows((("a", "b", "c"), 0.9), (("a", "x", "y"), 0.3))
        s1 = self.rows((("b", "c", "d"), 0.5))
        merged = merge_topk([s0, s1], k=2, by="t")
        assert [r["t"] for r in merged] == [0.9, 0.5]

    def test_tie_breaks_lexicographically(self):
        s0 = self.rows((("b", "c", "d"), 0.5))
        s1 = self.rows((("a", "b", "c"), 0.5))
        merged = merge_topk([s0, s1], k=2, by="t")
        assert merged[0]["authors"] == ("a", "b", "c")

    def test_k_truncates_and_unknown_rank_raises(self):
        s0 = self.rows((("a", "b", "c"), 0.9), (("a", "x", "y"), 0.3))
        assert len(merge_topk([s0], k=1, by="t")) == 1
        assert merge_topk([s0], k=0, by="t") == []
        with pytest.raises(ValueError):
            merge_topk([s0], k=1, by="bogus")


class TestMergeComponents:
    def test_boundary_edges_stitch_and_duplicate_safely(self):
        # Both incident shards report the cut edge (a, b); the union
        # must not double-count or split the component.
        f0 = {"edges": [("a", "b")]}
        f1 = {"edges": [("a", "b"), ("b", "c")]}
        assert merge_components([f0, f1]) == [["a", "b", "c"]]

    def test_min_size_floor_and_ordering(self):
        f0 = {"edges": [("a", "b")]}
        f1 = {"edges": [("c", "d"), ("d", "e")]}
        comps = merge_components([f0, f1], min_component_size=2)
        assert comps == [["c", "d", "e"], ["a", "b"]]  # largest first
        assert merge_components([f0, f1], min_component_size=3) == [
            ["c", "d", "e"]
        ]

    def test_component_of_absent_author(self):
        f0 = {"edges": [("a", "b")]}
        assert merged_component_of([f0], "nobody") == []
        assert merged_component_of([f0], "a") == ["a", "b"]


class TestShardedParity:
    def test_topologies_match_single_engine_oracle(self):
        report = run_sharded_parity(
            stream(400),
            CONFIG,
            shard_counts=(1, 2, 4),
            batch_size=32,
            forward_batch=64,
        )
        assert report.ok, report.describe()
        assert "SHARDED PARITY OK" in report.describe()

    def test_report_surfaces_divergences(self):
        report = run_sharded_parity(
            stream(60), CONFIG, shard_counts=(2,), batch_size=16
        )
        report.sections["topologies"].append("n_shards=2: synthetic mismatch")
        assert not report.ok
        assert "synthetic mismatch" in report.describe()


class TestShardedService:
    def test_routing_and_scores(self):
        events = stream(300)
        oracle = oracle_service(events)
        with make_tier(n_shards=3) as tier:
            tier.run_events(events)
            for author in ("u0", "u5", "u17", "missing"):
                assert tier.shard_for(author) == shard_of(author, 3)
                assert tier.user_score(author) == oracle.user_score(author)

    def test_shard_results_is_bit_identical(self):
        events = stream(300)
        oracle = oracle_service(events)
        with make_tier(n_shards=2) as tier:
            tier.run_events(events)
            for sid in (0, 1):
                assert (
                    diff_results(oracle.engine.snapshot(), tier.shard_results(sid))
                    == []
                )

    def test_rank_c_without_hypergraph_raises(self):
        config = PipelineConfig(
            window=TimeWindow(0, 120),
            min_triangle_weight=1,
            min_component_size=2,
            author_filter=AuthorFilter.none(),
            compute_hypergraph=False,
        )
        with ShardedDetectionService(
            config, n_shards=2, window_horizon=10_000, batch_size=32
        ) as tier:
            tier.run_events(stream(60))
            with pytest.raises(ValueError):
                tier.top_k_triplets(5, by="c")
            # The bad query must not have crash-looped the children.
            assert tier.status()["healthy"]

    def test_status_shape(self):
        with make_tier(n_shards=2) as tier:
            tier.run_events(stream(120))
            status = tier.status()
            assert status["sharded"] is True
            assert status["n_shards"] == 2
            assert status["healthy"] is True
            assert [s["shard"] for s in status["shards"]] == [0, 1]
            assert all(s["up"] for s in status["shards"])

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedDetectionService(CONFIG, n_shards=0)


@pytest.mark.faults
class TestShardFaults:
    def test_killed_shard_503s_only_its_keyspace_then_recovers(self, tmp_path):
        events = stream(400)
        oracle = oracle_service(events)
        with make_tier(
            n_shards=2, directory=tmp_path, fsync="interval", snapshot_every=64
        ) as tier:
            tier.run_events(events)
            victim = 0
            tier._shards[victim].sup.kill_child()

            # First query against the dead shard's keyspace surfaces the
            # typed unavailability (and triggers the background restart).
            victim_author = next(
                a for a in ("u%d" % i for i in range(18))
                if shard_of(a, 2) == victim
            )
            other_author = next(
                a for a in ("u%d" % i for i in range(18))
                if shard_of(a, 2) != victim
            )
            with pytest.raises(ShardUnavailableError) as excinfo:
                tier.user_score(victim_author)
            assert excinfo.value.shard_id == victim

            # The surviving shard keeps answering exactly.
            assert tier.user_score(other_author) == oracle.user_score(
                other_author
            )

            # After the supervised restart (durable store => exact
            # replay) the whole surface is answered in full again.
            assert tier.await_healthy(timeout=30.0)
            assert tier.user_score(victim_author) == oracle.user_score(
                victim_author
            )
            assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
            assert tier.components() == oracle.components()
            assert tier.status()["shards"][victim]["restarts"] == 1
