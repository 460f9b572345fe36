"""Tests for page-hash ingest sharding and the partial-weight exchange."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.filters import AuthorFilter
from repro.pipeline.config import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import (
    DetectionEngine,
    DetectionService,
    PartialExchangeError,
    PartialWeights,
    ScoringCore,
    ShardUnavailableError,
    ShardedDetectionService,
    merge_partials,
    page_shard_of,
    shard_of,
)
from repro.serve.exchange import load_partial, partial_bytes

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


def make_tier(n_shards=2, **kw):
    kw.setdefault("ingest_sharding", "page")
    kw.setdefault("window_horizon", 10_000)
    kw.setdefault("batch_size", 32)
    kw.setdefault("forward_batch", 64)
    kw.setdefault("heartbeat_timeout", 20.0)
    kw.setdefault("backoff_base", 0.01)
    return ShardedDetectionService(CONFIG, n_shards=n_shards, **kw)


def oracle_service(events, **kw):
    kw.setdefault("window_horizon", 10_000)
    svc = DetectionService(CONFIG, batch_size=32, **kw)
    svc.run_events(events)
    return svc


def partial(sid, n, pairs=(), pages=(), inc=(), nbytes=0):
    return PartialWeights(
        shard_id=sid,
        n_shards=n,
        pair_weights=dict(pairs),
        page_counts=dict(pages),
        incidence={u: dict(ps) for u, ps in inc},
        nbytes=nbytes,
    )


class TestMergePartials:
    def test_weights_sum_additively(self):
        merged = merge_partials(
            [
                partial(0, 2, pairs=[(("a", "b"), 2)], pages=[("a", 1)]),
                partial(1, 2, pairs=[(("a", "b"), 3), (("b", "c"), 1)]),
            ],
            2,
        )
        assert merged.pair_weights == {("a", "b"): 5, ("b", "c"): 1}
        assert merged.page_counts == {"a": 1}

    def test_duplicate_delivery_is_idempotent(self):
        # A retried gather redelivers a shard's partial; summing it twice
        # would double every weight that shard contributed.
        p0 = partial(0, 2, pairs=[(("a", "b"), 2)], nbytes=64)
        p1 = partial(1, 2, pairs=[(("a", "b"), 3)], nbytes=32)
        once = merge_partials([p0, p1], 2)
        redelivered = merge_partials([p0, p1, p0, p1, p0], 2)
        assert redelivered.pair_weights == once.pair_weights == {("a", "b"): 5}
        assert redelivered.exchange_bytes == once.exchange_bytes == 96

    def test_missing_shard_raises_instead_of_undercounting(self):
        with pytest.raises(PartialExchangeError, match=r"shard\(s\) \[1\]"):
            merge_partials([partial(0, 2)], 2)

    def test_topology_disagreement_raises(self):
        with pytest.raises(PartialExchangeError, match="built for 3"):
            merge_partials([partial(0, 3), partial(1, 2)], 2)
        with pytest.raises(PartialExchangeError, match="out of range"):
            merge_partials([partial(0, 2), partial(5, 2)], 2)

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "é", "x\ud800y"]),
                st.sampled_from(["p0", "p1", "p2", "p3", "名前", "ページ"]),
                st.integers(0, 300),
            ),
            max_size=60,
        ),
        n=st.integers(1, 4),
        data=st.data(),
    )
    def test_wire_roundtrip_merge_equals_single_engine(self, events, n, data):
        # Page-partitioned engines, their partials through the tier's
        # child-side builder and parent-side loader, delivered shuffled
        # with duplicates: the merge is the single engine's CI state.
        events = sorted(events, key=lambda e: e[2])
        oracle = DetectionEngine(CONFIG)
        oracle.ingest(events)
        blobs = []
        for sid in range(n):
            engine = DetectionEngine(CONFIG)
            engine.ingest([e for e in events if page_shard_of(e[1], n) == sid])
            blobs.append(partial_bytes(engine, sid, n))
        extra = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        order = data.draw(st.permutations(list(range(n)) + extra))
        merged = merge_partials([load_partial(blobs[i]) for i in order], n)
        assert merged.pair_weights == oracle.ci_edges()
        assert merged.page_counts == oracle.page_counts()
        assert merged.incidence == oracle.live_incidence()
        assert merged.exchange_bytes == sum(len(b) for b in blobs)

    def test_answers_ignore_ledger_insertion_order(self):
        # Partials travel unsorted.  Two tied triangles in two components
        # must rank and list the same whichever order the ledgers hold.
        events = [("a", "p0", 0), ("d", "p1", 0), ("b", "p0", 10),
                  ("e", "p1", 10), ("c", "p0", 20), ("f", "p1", 20)]
        oracle = DetectionEngine(CONFIG)
        oracle.ingest(events)
        ledgers = (oracle.ci_edges(), oracle.page_counts(), oracle.live_incidence())
        for order in (list, lambda items: list(reversed(items))):
            pairs, pages, inc = (dict(order(list(d.items()))) for d in ledgers)
            core = ScoringCore(
                CONFIG, pair_weights=pairs, page_counts=pages, incidence=inc
            )
            assert core.top_k_triplets(10) == oracle.top_k_triplets(10)
            assert core.components() == oracle.components()


class TestPageModeTier:
    def test_foreign_owner_page_stays_exact(self):
        # A page whose commenters ALL user-hash to other shards is the
        # case replicated ingest never has: the ingest shard holding the
        # page's ledger owns none of its authors' answers.  The exchange
        # must still hand the user-hash owners the full weights.
        n = 2
        authors = ["u%d" % i for i in range(40) if shard_of("u%d" % i, n) == 0]
        page = next(
            "p%d" % i for i in range(40) if page_shard_of("p%d" % i, n) == 1
        )
        trio = authors[:3]
        events = sorted(
            [(a, page, 10 * i + j) for i, a in enumerate(trio * 4) for j in (0,)]
            + [(a, "filler", 200 + i) for i, a in enumerate(trio)],
            key=lambda e: e[2],
        )
        oracle = oracle_service(events)
        with make_tier(n_shards=n) as tier:
            tier.run_events(events)
            # The foreign page's pairs survived the exchange verbatim.
            assert tier.ci_edges() == oracle.engine.ci_edges()
            for author in trio:
                assert tier.user_score(author) == oracle.user_score(author)
            assert tier.top_k_triplets(10) == oracle.top_k_triplets(10)

    def test_unicode_and_surrogate_names_survive_the_pipe(self):
        # Author and page names cross the supervisor pipe inside the
        # pickled partial: non-ASCII and lone-surrogate strings must
        # come back as the same keys the single engine holds.
        names = ["名前", "é", "x\ud800y", "plain"]
        events = [(names[i % 4], names[(i // 4) % 3], i) for i in range(120)]
        oracle = oracle_service(events)
        with make_tier(n_shards=2) as tier:
            tier.run_events(events)
            assert tier.ci_edges() == oracle.engine.ci_edges()
            assert {a for pair in tier.ci_edges() for a in pair} == set(names)

    def test_eviction_parity_via_watermark_broadcast(self):
        # A narrow horizon forces eviction; page-partitioned shards only
        # see their slice of the stream, so without the broadcast
        # watermark an idle shard would never advance its cutoff.
        events = stream(400)
        oracle = oracle_service(events, window_horizon=120)
        with make_tier(n_shards=4, window_horizon=120) as tier:
            tier.run_events(events)
            assert tier.ci_edges() == oracle.engine.ci_edges()
            assert tier.page_counts() == oracle.engine.page_counts()
            assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
            assert tier.components() == oracle.components()

    def test_status_reports_mode_and_exchange_metrics(self):
        # Spread over 100 pages so the crc32 page hash has something to
        # balance; stream()'s 6 pages would pin the hottest shard.
        events = [("u%d" % (i % 18), "p%d" % (i % 100), i) for i in range(400)]
        for mode, n in [
            ("page", 2), ("page", 4), ("replicated", 2), ("replicated", 4)
        ]:
            with make_tier(n_shards=n, ingest_sharding=mode) as tier:
                tier.run_events(events)
                tier.top_k_triplets(5)
                status = tier.status()
            assert status["ingest_sharding"] == mode
            counters = status["metrics"]["counters"]
            per_shard = [
                s["status"]["submitted_events"] for s in status["shards"]
            ]
            if mode == "page":
                assert counters["sharded.exchanges"] >= 1
                assert counters["sharded.exchange_bytes"] > 0
                # Page partitioning: per-shard submissions sum to the
                # stream, and no shard holds more than 1.6/n of it.
                assert sum(per_shard) == len(events)
                assert max(per_shard) <= 1.6 / n * len(events), (n, per_shard)
            else:
                # Replicated fan-out: every shard ingests every event.
                assert per_shard == [len(events)] * n

    def test_write_landing_mid_exchange_is_not_cached_away(self, monkeypatch):
        # A write that arrives while an exchange is in flight misses it.
        # The view built from that exchange must then count as stale,
        # not be cached as current until some later write or flush().
        import repro.serve.shard as shard_module

        real_merge = shard_module.merge_partials
        with make_tier(n_shards=2) as tier:
            tier.submit(("a", "p", 0))
            tier.submit(("b", "p", 10))
            late = [("c", "p", 20)]

            def merge_then_write(partials, n_shards):
                merged = real_merge(partials, n_shards)
                if late:
                    tier.submit(late.pop())
                return merged

            monkeypatch.setattr(shard_module, "merge_partials", merge_then_write)
            assert set(tier.ci_edges()) == {("a", "b")}
            assert set(tier.ci_edges()) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_ledger_accessors_require_page_mode(self):
        with make_tier(n_shards=2, ingest_sharding="replicated") as tier:
            tier.run_events(stream(60))
            with pytest.raises(ValueError, match="page"):
                tier.ci_edges()
            with pytest.raises(ValueError, match="page"):
                tier.page_counts()

    def test_rejects_unknown_ingest_mode(self):
        with pytest.raises(ValueError, match="ingest_sharding"):
            ShardedDetectionService(
                CONFIG, n_shards=2, ingest_sharding="broadcast"
            )


@pytest.mark.faults
class TestExchangeFaults:
    def test_dead_ingest_shard_fails_aggregate_queries_typed(self):
        # Page mode has coarser availability than replicated: every
        # aggregate answer needs every shard's partial, so one dead
        # ingest shard 503s the whole surface — typed, never silently
        # under-counted.
        events = stream(300)
        with make_tier(n_shards=2, max_restarts=0) as tier:
            tier.run_events(events)
            victim = 1
            tier._shards[victim].sup.kill_child()
            with pytest.raises(ShardUnavailableError) as excinfo:
                tier.top_k_triplets(10)
            assert excinfo.value.shard_id == victim
            # Even an author whose user-hash owner is alive: the owner
            # cannot aggregate without the dead shard's partial.
            live_author = next(
                a for a in ("u%d" % i for i in range(18))
                if shard_of(a, 2) != victim
            )
            with pytest.raises(ShardUnavailableError):
                tier.user_score(live_author)

    def test_aggregate_503s_while_restarting_then_recovers_exactly(self, tmp_path):
        events = stream(300)
        oracle = oracle_service(events)
        with make_tier(
            n_shards=2,
            directory=tmp_path,
            fsync="interval",
            snapshot_every=64,
            backoff_base=0.5,
        ) as tier:
            tier.run_events(events[:200])
            assert tier.top_k_triplets(10)  # a cached aggregate exists
            victim = 0
            tier._shards[victim].sup.kill_child()
            for event in events[200:]:
                tier.submit(event)
            # The exchange needs the dead shard: the query fails typed,
            # at once — the backoff is slept on the restart thread.
            with pytest.raises(ShardUnavailableError) as excinfo:
                tier.top_k_triplets(10)
            assert excinfo.value.shard_id == victim
            entry = tier.status()["shards"][victim]
            assert entry["restarting"] and not entry["up"] and not entry["failed"]
            with pytest.raises(ShardUnavailableError):
                tier.user_score("u0")

            assert tier.await_healthy(timeout=30.0)
            assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
            assert tier.components() == oracle.components()
            assert tier.ci_edges() == oracle.engine.ci_edges()
            assert tier.status()["shards"][victim]["restarts"] == 1
            assert tier.metrics.gauge(f"sharded.shard{victim}.up").value == 1
