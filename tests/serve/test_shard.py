"""Tests for the sharded serving tier: routing, parity, faults."""

import zlib

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline.config import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import (
    DetectionService,
    ShardUnavailableError,
    ShardedDetectionService,
    page_shard_of,
)
from repro.verify import run_sharded_parity

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
        # The routing rule is part of the wire contract: every process
        # of the tier must agree across processes and releases.
        assert page_shard_of("t3_alice", 4) == zlib.crc32(b"t3_alice") % 4
        assert page_shard_of("t3_bob", 7) == zlib.crc32(b"t3_bob") % 7

    def test_single_shard_short_circuits(self):
        assert page_shard_of("any", 1) == 0
        assert page_shard_of("any", 0) == 0

    def test_range_and_coverage(self):
        sids = {page_shard_of("page%d" % i, 4) for i in range(1000)}
        assert sids == {0, 1, 2, 3}

    def test_non_ascii_authors(self):
        assert 0 <= page_shard_of("ページ", 3) < 3


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
            per_shard = [
                s["status"]["submitted_events"] for s in tier.status()["shards"]
            ]
            assert per_shard == [
                sum(1 for e in events if page_shard_of(e[1], 3) == sid)
                for sid in range(3)
            ]
            for author in ("u0", "u5", "u17", "missing"):
                assert tier.user_score(author) == oracle.user_score(author)
            assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
            assert tier.components() == oracle.components()

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
    def test_killed_shard_503s_every_aggregate_then_recovers(self, tmp_path):
        events = stream(400)
        oracle = oracle_service(events)
        with make_tier(
            n_shards=2,
            directory=tmp_path,
            fsync="interval",
            snapshot_every=64,
            backoff_base=0.5,
        ) as tier:
            tier.run_events(events[:300])
            before = tier.top_k_triplets(25)
            victim = 0
            tier._shards[victim].sup.kill_child()

            # Nothing was written since the last exchange: the current
            # aggregate answers without touching a shard pipe.
            assert tier.top_k_triplets(25) == before

            # After a write every aggregate answer needs the dead shard's
            # claim, so each one surfaces the typed unavailability (the
            # first also starts the background restart).
            for event in events[300:]:
                tier.submit(event)
            with pytest.raises(ShardUnavailableError) as excinfo:
                tier.user_score("u0")
            assert excinfo.value.shard_id == victim
            with pytest.raises(ShardUnavailableError):
                tier.top_k_triplets(25)
            with pytest.raises(ShardUnavailableError):
                tier.component_of("u1")

            # After the supervised restart (durable store => exact
            # replay) the whole surface is answered in full again.
            assert tier.await_healthy(timeout=30.0)
            for author in ("u0", "u1", "missing"):
                assert tier.user_score(author) == oracle.user_score(author)
            assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
            assert tier.components() == oracle.components()
            assert tier.ci_edges() == oracle.engine.ci_edges()
            assert tier.status()["shards"][victim]["restarts"] == 1

    def test_first_status_after_a_kill_reports_the_dead_shard(self, tmp_path):
        # The probe that finds the child dead must say so in the same
        # answer, not one call later.
        with make_tier(
            n_shards=2, directory=tmp_path, fsync="interval", backoff_base=0.5
        ) as tier:
            tier.run_events(stream(120))
            victim = 1
            tier._shards[victim].sup.kill_child()
            status = tier.status()
            assert status["healthy"] is False
            entry = status["shards"][victim]
            assert entry["up"] is False and "status" not in entry
            assert entry["restarting"] and not entry["failed"]
            assert status["shards"][0]["up"] is True
            assert tier.metrics.gauge(f"sharded.shard{victim}.up").value == 0

            assert tier.await_healthy(timeout=30.0)
            status = tier.status()
            assert status["healthy"] is True
            assert status["shards"][victim]["restarts"] == 1
            assert status["metrics"]["counters"]["sharded.restarts"] == 1

    def test_backpressure_retries_count_each_event_once(self, tmp_path):
        # A shard kept down by a long backoff fills its small parent
        # queue, so run_events retries the same event until the restart
        # completes.  Each retry is one more submit() of one event.
        events = stream(200)
        oracle = oracle_service(events)
        with make_tier(
            n_shards=2,
            directory=tmp_path,
            fsync="interval",
            queue_capacity=8,
            forward_batch=4,
            backoff_base=0.5,
        ) as tier:
            tier.run_events(events[:100])
            tier._shards[0].sup.kill_child()
            tier.run_events(events[100:])
            counters = tier.metrics.to_dict()["counters"]
            assert counters["sharded.backpressure"] > 0
            assert counters["sharded.events"] == len(events)
            assert tier._shards[0].sup.restarts == 1
            assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
