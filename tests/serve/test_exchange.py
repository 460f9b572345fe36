"""Tests for page-hash ingest sharding and the claim exchange."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.filters import AuthorFilter
from repro.pipeline.config import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import (
    DetectionEngine,
    DetectionService,
    ExchangeAggregate,
    PartialExchangeError,
    PartialWeights,
    ScoringCore,
    ShardUnavailableError,
    ShardedDetectionService,
    page_shard_of,
    prometheus_text,
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


def partial(sid, n, pairs=(), pages=(), inc=(), nbytes=0, since=None, gen=1):
    return PartialWeights(
        shard_id=sid,
        n_shards=n,
        epoch="e%d" % sid,
        since=since,
        generation=gen,
        pair_weights=dict(pairs),
        page_counts=dict(pages),
        incidence={u: dict(ps) for u, ps in inc},
        nbytes=nbytes,
    )


def assert_core_is_engine(core, engine):
    """Every ledger and every answer of *core* equals *engine*'s."""
    assert core.ci_edges() == engine.ci_edges()
    assert core.page_counts() == engine.page_counts()
    assert core._user_pages == engine.live_incidence()
    for by in ("t", "c", "min_weight"):
        assert core.top_k_triplets(50, by=by) == engine.top_k_triplets(50, by=by)
    assert core.components() == engine.components()


class TestMergePartials:
    def test_weights_sum_additively(self):
        agg = ExchangeAggregate(CONFIG, 2)
        agg.absorb(
            [
                partial(0, 2, pairs=[(("a", "b"), 2)], pages=[("a", 1)]),
                partial(1, 2, pairs=[(("a", "b"), 3), (("b", "c"), 1)]),
            ]
        )
        assert agg.core.ci_edges() == {("a", "b"): 5, ("b", "c"): 1}
        assert agg.core.page_counts() == {"a": 1}
        # A delta sets the entries it names; the sum follows.
        agg.absorb(
            [
                partial(0, 2, pairs=[(("a", "b"), 0)], since=1, gen=2),
                partial(1, 2, pages=[("b", 2)], since=1, gen=2),
            ]
        )
        assert agg.core.ci_edges() == {("a", "b"): 3, ("b", "c"): 1}
        assert agg.core.page_counts() == {"a": 1, "b": 2}

    def test_duplicate_delivery_is_idempotent(self):
        # A retried gather redelivers a shard's answer; summing it twice
        # would double every weight that shard contributed.
        p0 = partial(0, 2, pairs=[(("a", "b"), 2)], nbytes=64)
        p1 = partial(1, 2, pairs=[(("a", "b"), 3)], nbytes=32)
        once, redelivered = ExchangeAggregate(CONFIG, 2), ExchangeAggregate(CONFIG, 2)
        assert once.absorb([p0, p1]).nbytes == 96
        redelivered.absorb([p0, p1, p0, p1, p0])
        assert redelivered.core.ci_edges() == once.core.ci_edges() == {("a", "b"): 5}
        # A delta delivered twice applies once.
        d0 = partial(0, 2, pairs=[(("a", "b"), 4)], since=1, gen=2)
        stats = once.absorb([d0, p1, d0])
        assert once.core.ci_edges() == {("a", "b"): 7}
        assert stats.resyncs == 1 and once.claim_args(0) == ("e0", 2)

    def test_missing_shard_raises_instead_of_undercounting(self):
        agg = ExchangeAggregate(CONFIG, 2)
        with pytest.raises(PartialExchangeError, match=r"shard\(s\) \[1\]"):
            agg.absorb([partial(0, 2, pairs=[(("a", "b"), 2)])])
        # Nothing was applied: the next claim still asks for everything.
        assert agg.core.ci_edges() == {}
        assert agg.claim_args(0) == (None, None)

    def test_topology_disagreement_raises(self):
        agg = ExchangeAggregate(CONFIG, 2)
        with pytest.raises(PartialExchangeError, match="built for 3"):
            agg.absorb([partial(0, 3), partial(1, 2)])
        with pytest.raises(PartialExchangeError, match="out of range"):
            agg.absorb([partial(0, 2), partial(5, 2)])

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
        # Page-partitioned engines, their first claims through the tier's
        # child-side builder and parent-side loader, delivered shuffled
        # with duplicates: the aggregate is the single engine.
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
        agg = ExchangeAggregate(CONFIG, n)
        stats = agg.absorb([load_partial(blobs[i]) for i in order])
        assert_core_is_engine(agg.core, oracle)
        assert stats.nbytes == sum(len(blobs[i]) for i in order)
        assert stats.resyncs == len(order)

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


class TestClaims:
    def test_unclaimed_engine_keeps_no_journal(self):
        engine = DetectionEngine(CONFIG)
        engine.ingest(stream(60))
        engine.advance(30)
        assert engine._journal is None

    def test_delta_names_only_what_moved(self):
        engine = DetectionEngine(CONFIG)
        engine.ingest(stream(60))
        epoch, since, gen, _ = engine.claim(None, None)
        assert since is None and gen == 1
        engine.ingest([("new", "p1", 61)])
        epoch2, since, gen, (pairs, counts, incidence) = engine.claim(epoch, 1)
        assert (epoch2, since, gen) == (epoch, 1, 2)
        assert incidence == {"new": {"p1": 1}}
        assert pairs and all("new" in pair for pair in pairs)
        assert pairs == {
            pair: w for pair, w in engine.ci_edges().items() if "new" in pair
        }
        assert counts["new"] == 1
        # A claim that names an older generation gets the full state.
        assert engine.claim(epoch, 1)[1] is None

    def test_compaction_between_claims_keeps_deltas_exact(self):
        # compact() renumbers every id the journal holds, and drops the
        # ids of users the window evicted: their zeroed entries must
        # still reach the aggregate, by name.
        events = stream(300)
        oracle = DetectionEngine(CONFIG)
        engines = [DetectionEngine(CONFIG) for _ in range(2)]
        agg = ExchangeAggregate(CONFIG, 2)

        def step(chunk, cutoff):
            oracle.ingest(chunk)
            oracle.advance(cutoff)
            for sid, engine in enumerate(engines):
                engine.ingest([e for e in chunk if page_shard_of(e[1], 2) == sid])
                engine.advance(cutoff)

        def exchange():
            return agg.absorb(
                load_partial(partial_bytes(e, sid, 2, *agg.claim_args(sid)))
                for sid, e in enumerate(engines)
            )

        step(events[:150], 0)
        exchange()
        step(events[150:200], 160)  # evicts most of the early users' rows
        step([("late%d" % i, "p%d" % (i % 6), 200 + i) for i in range(12)], 180)
        for engine in engines:
            engine.compact()
        assert exchange().resyncs == 0
        assert_core_is_engine(agg.core, oracle)
        step(events[200:], 220)
        for engine in engines:
            engine.compact()
        step([("after", "p0", 300)], 220)
        assert exchange().resyncs == 0
        assert_core_is_engine(agg.core, oracle)

    def test_delta_past_a_gap_is_ignored_then_resynced(self):
        # One answer is lost in flight, and the next arrives built on
        # it.  Applying that one would leave the lost answer's entries
        # behind for good, so it is ignored and the next claim, naming
        # the last applied answer, gets the full state.
        engine, oracle = DetectionEngine(CONFIG), DetectionEngine(CONFIG)
        agg = ExchangeAggregate(CONFIG, 1)

        def ingest(events):
            engine.ingest(events)
            oracle.ingest(events)

        def claim():
            return load_partial(partial_bytes(engine, 0, 1, *agg.claim_args(0)))

        ingest(stream(60))
        agg.absorb([claim()])
        ingest([("x", "p0", 61)])
        lost = claim()
        ingest([("y", "p5", 62)])
        later = load_partial(
            partial_bytes(engine, 0, 1, lost.epoch, lost.generation)
        )
        assert later.since == lost.generation
        assert agg.absorb([later]).resyncs == 0
        assert agg.claim_args(0) == (later.epoch, 1)  # not applied
        resync = claim()
        assert resync.full
        agg.absorb([resync])
        assert_core_is_engine(agg.core, oracle)

    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "e", "é"]),
                st.sampled_from(["p0", "p1", "p2", "p3", "名前"]),
                st.integers(0, 400),
            ),
            min_size=1,
            max_size=80,
        ),
        n=st.integers(1, 3),
        data=st.data(),
    )
    def test_redelivery_reorder_and_gaps_converge(self, events, n, data):
        # Claim answers delivered twice, out of order, or not at all, with
        # evictions, compactions and shard restarts between claims: every
        # answer that does not continue its shard's last applied one is
        # ignored or costs a full resync, and a clean gather always lands
        # on the single engine.
        events = sorted(events, key=lambda e: e[2])
        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=3)))
        rounds = [events[a:b] for a, b in zip([0] + cuts, cuts + [len(events)])]
        oracle = DetectionEngine(CONFIG)
        engines = [DetectionEngine(CONFIG) for _ in range(n)]
        seen = [[] for _ in range(n)]
        agg = ExchangeAggregate(CONFIG, n)
        sent: list[bytes] = []
        cutoff = None
        for chunk in rounds:
            oracle.ingest(chunk)
            for sid in range(n):
                mine = [e for e in chunk if page_shard_of(e[1], n) == sid]
                seen[sid] += mine
                engines[sid].ingest(mine)
            if chunk and data.draw(st.booleans()):
                cutoff = chunk[-1][2] - 150
                for engine in engines + [oracle]:
                    engine.advance(cutoff)
            for sid in range(n):
                event = data.draw(st.sampled_from(["none", "compact", "restart"]))
                if event == "compact":
                    engines[sid].compact()
                elif event == "restart":  # a new incarnation, same state
                    engines[sid] = DetectionEngine(CONFIG)
                    engines[sid].ingest(seen[sid])
                    if cutoff is not None:
                        engines[sid].advance(cutoff)
            fresh = [
                partial_bytes(engines[sid], sid, n, *agg.claim_args(sid))
                for sid in range(n)
            ]
            sent += fresh
            if data.draw(st.booleans()):
                agg.absorb(load_partial(b) for b in fresh)
                assert_core_is_engine(agg.core, oracle)
                continue
            batch = data.draw(st.lists(st.sampled_from(sent), max_size=2 * n + 2))
            try:
                agg.absorb(load_partial(b) for b in batch)
            except PartialExchangeError:
                assert {load_partial(b).shard_id for b in batch} != set(range(n))
        agg.absorb(
            load_partial(partial_bytes(engines[sid], sid, n, *agg.claim_args(sid)))
            for sid in range(n)
        )
        assert_core_is_engine(agg.core, oracle)


class TestPageModeTier:
    def test_foreign_owner_page_stays_exact(self):
        # Three authors share one page on shard 1 and a filler page on
        # shard 0: each shard holds only part of every author's pairs
        # and P' counts.  The exchange must add the foreign shard's
        # weights to the local ones, not answer from either alone.
        n = 2
        page, filler = (
            next("p%d" % i for i in range(40) if page_shard_of("p%d" % i, n) == sid)
            for sid in (1, 0)
        )
        trio = ["u0", "u1", "u2"]
        events = sorted(
            [(a, page, 10 * i) for i, a in enumerate(trio * 4)]
            + [(a, filler, 200 + i) for i, a in enumerate(trio)],
            key=lambda e: e[2],
        )
        oracle = oracle_service(events)
        with make_tier(n_shards=n) as tier:
            tier.run_events(events)
            # Both shards' pairs survived the exchange, summed.
            assert tier.ci_edges() == oracle.engine.ci_edges()
            assert tier.page_counts() == oracle.engine.page_counts()
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

    def test_status_reports_partition_and_exchange_metrics(self):
        # Spread over 100 pages so the crc32 page hash has something to
        # balance; stream()'s 6 pages would pin the hottest shard.
        events = [("u%d" % (i % 18), "p%d" % (i % 100), i) for i in range(400)]
        for n in (2, 4):
            with make_tier(n_shards=n) as tier:
                tier.run_events(events)
                tier.top_k_triplets(5)
                status = tier.status()
            counters = status["metrics"]["counters"]
            per_shard = [
                s["status"]["submitted_events"] for s in status["shards"]
            ]
            assert counters["sharded.exchanges"] >= 1
            assert counters["sharded.exchange_bytes"] > 0
            assert counters["sharded.events"] == len(events)
            # Page partitioning: per-shard submissions sum to the
            # stream, and no shard holds more than 1.6/n of it.
            assert sum(per_shard) == len(events)
            assert max(per_shard) <= 1.6 / n * len(events), (n, per_shard)

    def test_write_landing_mid_exchange_is_not_cached_away(self, monkeypatch):
        # A write that arrives while an exchange is in flight misses it.
        # The view built from that exchange must then count as stale,
        # not be cached as current until some later write or flush().
        with make_tier(n_shards=2) as tier:
            real_absorb = tier._aggregate.absorb
            tier.submit(("a", "p", 0))
            tier.submit(("b", "p", 10))
            late = [("c", "p", 20)]

            def absorb_then_write(partials):
                stats = real_absorb(partials)
                if late:
                    tier.submit(late.pop())
                return stats

            monkeypatch.setattr(tier._aggregate, "absorb", absorb_then_write)
            assert set(tier.ci_edges()) == {("a", "b")}
            assert set(tier.ci_edges()) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_exchange_counters_show_in_status_and_metrics(self):
        events = stream(260)
        with make_tier(n_shards=2) as tier:
            counters = tier.status()["metrics"]["counters"]
            assert counters["sharded.exchange_resyncs"] == 0
            assert counters["sharded.exchange_delta_entries"] == 0
            tier.run_events(events[:200])
            tier.top_k_triplets(5)
            tier.run_events(events[200:])
            tier.top_k_triplets(5)
            tier.top_k_triplets(5)  # nothing new: no exchange
            counters = tier.status()["metrics"]["counters"]
            text = prometheus_text(tier.metrics)
        assert counters["sharded.exchanges"] == 2
        # Each shard's first answer is its full state; the second a delta.
        assert counters["sharded.exchange_resyncs"] == 2
        assert counters["sharded.exchange_delta_entries"] > 0
        assert "repro_sharded_exchange_resyncs_total 2" in text
        assert "repro_sharded_exchange_delta_entries_total" in text

    def test_an_exchange_waits_for_the_read_in_progress(self):
        # The aggregate core is long-lived and every exchange moves it,
        # so a read holds the aggregate lock until it is done: a query
        # that needs an exchange must wait rather than move the core
        # under a reader.
        with make_tier(n_shards=2) as tier:
            tier.run_events(stream(100))
            with tier._aggregate_core() as core:
                real_top_k = core.top_k_triplets
            reading, release = threading.Event(), threading.Event()

            def slow_top_k(k, by="t"):
                reading.set()
                release.wait(10.0)
                return real_top_k(k, by)

            core.top_k_triplets = slow_top_k
            reader = threading.Thread(target=tier.top_k_triplets, args=(5,))
            reader.start()
            assert reading.wait(10.0)
            tier.submit(("new", "p0", 101))
            writer = threading.Thread(target=tier.user_score, args=("new",))
            writer.start()
            writer.join(timeout=0.5)
            blocked = writer.is_alive()
            release.set()
            reader.join(timeout=10.0)
            writer.join(timeout=10.0)
            assert blocked
            assert not reader.is_alive() and not writer.is_alive()
            assert tier.user_score("new")["present"]

    def test_rejects_unknown_ingest_mode(self):
        # Page hashing is the only ingest mode; the keyword stays for
        # callers that name it, and replicated fan-out is refused.
        for mode in ("replicated", "broadcast"):
            with pytest.raises(ValueError, match="replicated fan-out was removed"):
                ShardedDetectionService(CONFIG, n_shards=2, ingest_sharding=mode)


@pytest.mark.faults
class TestExchangeFaults:
    def test_dead_ingest_shard_fails_aggregate_queries_typed(self):
        # Every aggregate answer needs every shard's partial, so one
        # dead ingest shard 503s the whole surface — typed, never
        # silently under-counted.
        events = stream(300)
        with make_tier(n_shards=2, max_restarts=0) as tier:
            tier.run_events(events)
            victim = 1
            tier._shards[victim].sup.kill_child()
            with pytest.raises(ShardUnavailableError) as excinfo:
                tier.top_k_triplets(10)
            assert excinfo.value.shard_id == victim
            # Every author: the aggregate cannot be built without the
            # dead shard's partial.
            for author in ("u0", "u1", "missing"):
                with pytest.raises(ShardUnavailableError):
                    tier.user_score(author)

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

    def test_kill_child_between_claims_resyncs_only_that_shard(self, tmp_path):
        # A restarted child is a new engine incarnation (a new epoch), so
        # the claim naming its predecessor's generation gets the full
        # state; the other shard keeps shipping deltas.
        events = stream(300)
        oracle = oracle_service(events)
        with make_tier(
            n_shards=2, directory=tmp_path, fsync="interval", snapshot_every=64
        ) as tier:
            resyncs = tier.metrics.counter("sharded.exchange_resyncs")
            tier.run_events(events[:150])
            tier.top_k_triplets(10)
            tier.run_events(events[150:200])
            tier.top_k_triplets(10)
            assert resyncs.value == 2
            tier._shards[0].sup.kill_child()
            for event in events[200:]:
                tier.submit(event)
            try:
                tier.top_k_triplets(10)
            except ShardUnavailableError:
                pass  # the claim found the child dead: restarting
            assert tier.await_healthy(timeout=30.0)
            assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
            assert tier.components() == oracle.components()
            assert tier.ci_edges() == oracle.engine.ci_edges()
            assert tier.page_counts() == oracle.engine.page_counts()
            assert resyncs.value == 3
            assert tier.status()["shards"][0]["restarts"] == 1
