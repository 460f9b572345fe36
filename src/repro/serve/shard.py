"""Sharded serving tier: N supervised engine shards behind one facade.

:class:`ShardedDetectionService` is a router over layers that already
exist: every shard is a :class:`~repro.serve.supervisor.ServeSupervisor`
(delivery, watchdog, restart policy), every answer comes out of the
engine's :class:`~repro.serve.engine.ScoringCore`.  What the tier adds
is routing and, where answers live in N processes, exact merges.
**Ingest** runs in one of two modes (``ingest_sharding``):

- ``"replicated"`` (default) — every event fans out to every shard, so
  each shard's :class:`~repro.serve.engine.DetectionEngine` holds the
  full live window and answers the queries it owns locally.  Shard
  ``s`` is authoritative for the users hashing to ``s``
  (:func:`repro.serve.ingest.shard_of`): ``user_score`` routes to the
  owner; global top-k is the k-way merge of per-shard *owned* candidate
  lists (a triplet is owned by the shard of its lexicographically-first
  author, so each appears exactly once); components are rebuilt by
  labelling per-shard fragments (the edges at owned users) as one graph
  at the gateway, whose boundary edges stitch the cuts back together.
  Maximally available (a dead shard 503s only its keyspace) but every
  shard pays O(stream) ingest.
- ``"page"`` — each event routes only to the shard its page hashes to
  (:func:`repro.serve.ingest.page_shard_of`), so per-shard ingest cost
  is O(stream/N).  Page locality keeps this exact: a page's co-comment
  pairs are computable from that page's timeline alone and pages are
  disjoint across shards, so each shard builds per-page pair ledgers
  locally and the tier **exchanges ledger deltas** — an aggregate query
  after a write sends each shard one claim over the same supervisor
  pipe that carries its events, the shard answers with the
  ``w'``/``P'``/incidence entries it moved since its last applied
  answer, and the facade adds them (:mod:`repro.serve.exchange`) into
  one long-lived in-process :class:`~repro.serve.engine.ScoringCore`,
  which thresholds, scores and answers every query directly — no owner
  slicing, no merge: the answers live in one process.  Shards see only
  a timestamp subset of the stream, so the tier tracks the global
  watermark and broadcasts it (supervisor op ``observe``, and in every
  claim) so every shard's eviction cutoff converges on the
  single-engine one.  Ingest shards skip local triangle maintenance
  entirely (their engines run with an unreachable cutoff —
  owner-computes: thresholding and scoring happen once, at the
  aggregator).

Each answer is bit-identical to the single-engine oracle's
(:func:`repro.verify.sharded.run_sharded_parity` sweeps both ingest
modes to enforce this).

What replication buys: query throughput scales with shards and
availability degrades **per keyspace** — a crashed shard 503s only the
users it owns while it restarts.  What page partitioning buys: ingest
throughput scales with shards too (each shard processes ~1/N of the
stream — ``tests/serve/test_exchange.py`` pins the partition, the
``serve-mixed`` workload of ``benchmarks/e2e`` times it), at the
cost of a claim round per shard on the first aggregate query after a
write and coarser availability (an exchange needs *every* shard, so a
dead shard 503s aggregate queries until it restarts).

**Restart policy is the supervisor's** — windowed budget
(``max_restarts`` per ``restart_window``), capped exponential backoff
(``backoff_base`` / ``backoff_cap``), degraded state, restart counter;
the tier passes the four values through and keeps none of its own.  It
decides one thing: *which thread* runs the supervisor's loop.  A
shard's supervisor (:class:`_ShardSupervisor`) hands the loop to a
background thread, so the request that noticed the death — and every
one after it until the child is back — raises
:class:`ShardUnavailableError` (HTTP 503) immediately instead of
waiting out the backoff.  An exhausted budget leaves the shard
*failed* (the supervisor's degraded mode): its ingest sheds with a
counter and its queries keep 503ing.  With a durable root every shard
journals to its own ``shard-NN/`` store and recovery is exact; without
one shards are volatile and a restart replays only the retained
in-flight suffix.
"""

from __future__ import annotations

import heapq
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.graph.components import named_components
from repro.pipeline.config import PipelineConfig
from repro.pipeline.results import PipelineResult
from repro.serve.engine import ScoringCore
from repro.serve.exchange import ExchangeAggregate, load_partial
from repro.serve.ingest import Event, page_shard_of, shard_of
from repro.serve.metrics import ServiceMetrics
from repro.serve.supervisor import DegradedError, ServeSupervisor

__all__ = [
    "INGEST_MODES",
    "ShardUnavailableError",
    "ShardedDetectionService",
    "merge_components",
    "merge_topk",
    "merged_component_of",
    "page_shard_of",
    "shard_of",
]

_RANKS = ("t", "c", "min_weight")

#: Supported ``ingest_sharding`` modes of the tier.
INGEST_MODES = ("replicated", "page")

#: Edge-weight cutoff no live pair can reach: page-mode ingest shards run
#: their engines with this so they maintain pair ledgers, ``P'`` and the
#: incidence (all cutoff-independent) but never materialize thresholded
#: adjacency or triangles — that work happens once, at the aggregator.
_LEDGER_ONLY_CUTOFF = 1 << 62


class ShardUnavailableError(RuntimeError):
    """The authoritative shard for a query is down or restarting.

    The HTTP gateway maps this to ``503 Service Unavailable`` with a
    ``Retry-After`` hint; only the dead shard's keyspace is affected.
    """

    def __init__(self, shard_id: int, reason: str) -> None:
        super().__init__(f"shard {shard_id} unavailable: {reason}")
        self.shard_id = shard_id
        self.reason = reason


# ---------------------------------------------------------------------------
# Merge helpers (pure functions — the gateway-side halves of each query)
# ---------------------------------------------------------------------------


def _merge_key(by: str) -> Callable[[dict], tuple]:
    if by not in _RANKS:
        raise ValueError(f"unknown ranking {by!r} (use t, c, min_weight)")
    return lambda row: (-row[by], row["authors"])


def merge_topk(per_shard: Iterable[list[dict]], k: int, by: str) -> list[dict]:
    """K-way merge of per-shard owned candidate lists into the global top-k.

    Each input list is already sorted by the engine's ranking
    (descending score, lexicographic author tie-break) and owns its
    rows exclusively, so a heap merge of the lists *is* the global
    ranking and its first *k* rows are exact.
    """
    merged = heapq.merge(*per_shard, key=_merge_key(by))
    return list(islice(merged, max(int(k), 0)))


def merge_components(
    fragments: Iterable[dict], min_component_size: int = 1
) -> list[list[str]]:
    """Label per-shard graph fragments as one graph: global components.

    Boundary edges are reported by both incident shards; the labelling
    is idempotent under the duplication.  Output matches
    :meth:`DetectionEngine.components` exactly: sorted name lists,
    floored at *min_component_size*, largest first with lexicographic
    tie-break.
    """
    edges = [edge for frag in fragments for edge in frag["edges"]]
    return named_components(
        [a for a, _ in edges], [b for _, b in edges], min_component_size
    )


def merged_component_of(fragments: Iterable[dict], author: str) -> list[str]:
    """*author*'s component across fragments (empty when absent/isolated)."""
    return next((c for c in merge_components(fragments) if author in c), [])


# ---------------------------------------------------------------------------
# The sharded service
# ---------------------------------------------------------------------------


class _ShardSupervisor(ServeSupervisor):
    """A shard's supervisor: the same restart loop, off the query path.

    Overrides only *where* :meth:`ServeSupervisor._restart_loop` runs: a
    background thread, so the caller that found the child dead gets its
    :class:`DegradedError` (→ 503) at once.  Budget, backoff and the
    degraded flag stay the base class's.  Also mirrors the outcome into
    the tier's registry (``sharded.shardN.up``, ``sharded.restarts``).
    """

    def __init__(
        self, sid: int, tier_metrics: ServiceMetrics, *args: Any, **kwargs: Any
    ) -> None:
        self._sid = sid
        self._up = tier_metrics.gauge(f"sharded.shard{sid}.up")
        self._restarted = tier_metrics.counter("sharded.restarts")
        self._recovery: threading.Thread | None = None
        super().__init__(*args, **kwargs)
        self._up.set(1)

    def _recover(self) -> None:
        # Claim the pipe for the loop *before* this request returns, so
        # no other caller touches the dead pipe in between.
        self.restarting = True
        self._up.set(0)
        self._recovery = threading.Thread(
            target=self._recover_in_background,
            daemon=True,
            name=f"shard-{self._sid}-restart",
        )
        self._recovery.start()
        raise DegradedError("shard restarting")

    def _recover_in_background(self) -> None:
        try:
            self._restart_loop()
        except DegradedError:
            return  # budget spent: the shard stays degraded (= failed)
        self._restarted.inc()
        self._up.set(1)

    def await_restart(self, timeout: float) -> None:
        """Wait (bounded) for a background restart loop, if one is running."""
        thread = self._recovery
        if thread is not None:
            thread.join(timeout)


class _Shard:
    """One supervised engine shard plus the lock serializing its pipe."""

    __slots__ = ("sid", "sup", "lock")

    def __init__(self, sid: int, sup: _ShardSupervisor) -> None:
        self.sid = sid
        self.sup = sup
        self.lock = threading.Lock()


class ShardedDetectionService:
    """N supervised engine shards behind one exact query facade.

    Parameters
    ----------
    config:
        Pipeline configuration, forked into every shard.
    n_shards:
        Worker processes / query keyspace partitions.
    ingest_sharding:
        ``"replicated"`` (every event to every shard) or ``"page"``
        (events route by page hash; queries answered from the claim
        exchange's aggregate).
    directory:
        Optional durable root; shard ``s`` journals under
        ``directory/shard-NN``.  ``None`` = volatile shards.
    heartbeat_timeout / query_timeout:
        Watchdog deadline per shard request; how long a query waits for
        a shard's pipe before declaring the shard busy (503).
    **shard_kwargs:
        Forwarded to every shard's
        :class:`~repro.serve.supervisor.ServeSupervisor`: its restart
        policy (``max_restarts``, ``restart_window``, ``backoff_base``,
        ``backoff_cap`` — per shard, the supervisor's meaning and
        defaults) and, through it, the child service's arguments
        (``window_horizon``, ``batch_size``, and — with a durable root —
        ``fsync``, ``snapshot_every``, …).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        n_shards: int = 2,
        ingest_sharding: str = "replicated",
        directory: str | Path | None = None,
        metrics: ServiceMetrics | None = None,
        heartbeat_timeout: float = 30.0,
        query_timeout: float = 5.0,
        forward_batch: int = 512,
        queue_capacity: int = 65_536,
        **shard_kwargs: Any,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.config = config if config is not None else PipelineConfig()
        if ingest_sharding not in INGEST_MODES:
            raise ValueError(
                f"unknown ingest_sharding {ingest_sharding!r} "
                f"(use one of {', '.join(INGEST_MODES)})"
            )
        self.ingest_sharding = ingest_sharding
        self._page_mode = ingest_sharding == "page"
        # Page-mode ingest shards only keep ledgers (cutoff-independent
        # state); thresholding + scoring happen once, in the aggregate.
        child_config = (
            replace(self.config, min_triangle_weight=_LEDGER_ONLY_CUTOFF)
            if self._page_mode
            else self.config
        )
        self.n_shards = int(n_shards)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.query_timeout = float(query_timeout)
        self.directory = Path(directory) if directory is not None else None
        # Page-mode tier state (single producer, like the supervisors'
        # queues): the global watermark broadcast, and the long-lived
        # cross-shard aggregate with the ingest generation it reflects.
        self._forward_batch = int(forward_batch)
        self._max_event_t: int | None = None
        self._events_since_observe = 0
        self._ingest_generation = 0
        self._agg_lock = threading.Lock()
        self._aggregate = (
            ExchangeAggregate(self.config, self.n_shards)
            if self._page_mode
            else None
        )
        self._aggregate_generation: int | None = None
        self._shards: list[_Shard] = []
        try:
            for sid in range(self.n_shards):
                shard_dir = (
                    None
                    if self.directory is None
                    else self.directory / f"shard-{sid:02d}"
                )
                sup = _ShardSupervisor(
                    sid,
                    self.metrics,
                    child_config,
                    directory=shard_dir,
                    queue_capacity=queue_capacity,
                    queue_policy="reject",
                    forward_batch=forward_batch,
                    heartbeat_timeout=heartbeat_timeout,
                    **shard_kwargs,
                )
                self._shards.append(_Shard(sid, sup))
        except BaseException:
            self.close()
            raise
        self.metrics.gauge("sharded.n_shards").set(self.n_shards)
        if self._page_mode:
            # Exchange counters show in /status and /metrics from the start.
            for name in (
                "sharded.exchanges",
                "sharded.exchange_bytes",
                "sharded.exchange_resyncs",
                "sharded.exchange_delta_entries",
            ):
                self.metrics.counter(name)

    # -- ingest ------------------------------------------------------------
    def submit(self, event: Event) -> bool:
        """Route one event into the tier (mode-dependent).

        Replicated mode fans the event out to every shard; page mode
        delivers it only to the shard its page hashes to.  Returns
        ``False`` when a live target shard applied backpressure (its
        parent queue is full while it restarts) — the producer should
        back off and retry, mirroring :meth:`DetectionService.submit`.
        Permanently failed shards shed silently (counted) rather than
        wedging ingest forever.
        """
        if self._page_mode:
            ok = self._submit_page(event)
        else:
            # A list, not a generator: every shard must get the event.
            ok = all([self._deliver(shard, event) for shard in self._shards])
        self.metrics.counter("sharded.events").inc()
        return ok

    def _deliver(self, shard: _Shard, event: Event) -> bool:
        """One event into one shard's supervisor; ``False`` = backpressure."""
        if shard.sup.degraded:
            self.metrics.counter("sharded.shed").inc()
            return True
        with shard.lock:
            admitted = shard.sup.submit(event)
        if not admitted:
            self.metrics.counter("sharded.backpressure").inc()
        return admitted

    def _submit_page(self, event: Event) -> bool:
        """Page-hash delivery: one event → exactly one ingest shard.

        The tier tracks the global max event time itself (each shard
        sees only a timestamp subset) and broadcasts it every
        ``forward_batch`` events so per-shard eviction cutoffs track the
        single-engine one.  Every event advances the ingest generation,
        which is what invalidates the memoized cross-shard aggregate.
        """
        t = int(event[2])
        if self._max_event_t is None or t > self._max_event_t:
            self._max_event_t = t
        self._ingest_generation += 1
        shard = self._shards[page_shard_of(event[1], self.n_shards)]
        admitted = self._deliver(shard, event)
        self._events_since_observe += 1
        if self._events_since_observe >= self._forward_batch:
            self._broadcast_watermark()
        return admitted

    def _broadcast_watermark(self) -> None:
        """Push the tier-wide max event time into every live shard."""
        self._events_since_observe = 0
        t = self._max_event_t
        if t is None:
            return
        for shard in self._shards:
            try:
                with shard.lock:
                    shard.sup.observe(t)
            except DegradedError:
                pass  # down: it catches up from the next broadcast

    def run_events(
        self, events: Iterable[Event], *, max_events: int | None = None
    ) -> int:
        """Feed an iterable through every shard; returns events consumed."""
        consumed = 0
        try:
            for event in events:
                if max_events is not None and consumed >= max_events:
                    break
                consumed += 1
                while not self.submit(event):
                    time.sleep(0.01)  # a shard is restarting with a full queue
        except KeyboardInterrupt:
            self.metrics.counter("service.interrupted").inc()
        self.flush()
        return consumed

    def flush(self) -> None:
        """Forward and drain every live shard (waits out active restarts).

        In page mode the global watermark is re-broadcast afterwards so
        every shard's eviction cutoff lands on the tier-wide final value.
        """
        for shard in self._shards:
            shard.sup.await_restart(30.0)
            with shard.lock:
                shard.sup.flush()  # a no-op on a shard that is still down
        if self._page_mode:
            self._broadcast_watermark()

    def await_healthy(self, timeout: float = 30.0) -> bool:
        """Block until no shard is mid-restart; ``True`` if all are up."""
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            shard.sup.await_restart(max(0.0, deadline - time.monotonic()))
        return not any(shard.sup.down for shard in self._shards)

    # -- queries -----------------------------------------------------------
    def _unavailable(self, shard_id: int, reason: str) -> ShardUnavailableError:
        self.metrics.counter("sharded.unavailable").inc()
        return ShardUnavailableError(shard_id, reason)

    def _require_up(self, shard: _Shard) -> None:
        if shard.sup.down:
            raise self._unavailable(
                shard.sid,
                "restart budget exhausted (shard failed)"
                if shard.sup.degraded
                else "shard restarting",
            )

    def _query(self, shard_id: int, fn: Callable[[ServeSupervisor], Any]) -> Any:
        """Run *fn(supervisor)* on one shard under its lock, 503-typed."""
        shard = self._shards[shard_id]
        self._require_up(shard)
        if not shard.lock.acquire(timeout=self.query_timeout):
            raise self._unavailable(
                shard_id, f"shard busy (> {self.query_timeout:g}s)"
            )
        try:
            return fn(shard.sup)
        except DegradedError as exc:
            raise self._unavailable(shard_id, str(exc)) from exc
        finally:
            shard.lock.release()

    @contextmanager
    def _aggregate_core(self) -> Iterator[ScoringCore]:
        """The current cross-shard aggregate (page mode's query engine).

        Held under the aggregate lock for the caller's read, since the
        core is long-lived and the next exchange moves it.  When events
        arrived since the last exchange, runs one: each shard gets one
        claim round (buffered events forwarded first) that drains it,
        folds in the tier watermark and returns the ledger entries moved
        since its last applied answer; the aggregate sums those into its
        :class:`~repro.serve.engine.ScoringCore`.  A dead shard raises
        :class:`ShardUnavailableError` — an exchange needs every
        partition, so page-mode aggregate queries 503 (without waiting)
        until the shard's restart completes.
        """
        aggregate = self._aggregate
        assert aggregate is not None
        with self._agg_lock:
            # Read before the claims: an event that lands mid-exchange
            # may miss them, and must leave the aggregate stale.
            generation = self._ingest_generation
            if self._aggregate_generation != generation:
                # Fail fast rather than wait out a restart.
                for shard in self._shards:
                    self._require_up(shard)
                self._exchange(aggregate)
                self._aggregate_generation = generation
            yield aggregate.core

    def _exchange(self, aggregate: ExchangeAggregate) -> None:
        watermark = self._max_event_t
        m = self.metrics
        with m.time("sharded.exchange"):
            partials = []
            for shard in self._shards:
                epoch, since = aggregate.claim_args(shard.sid)
                blob = self._query(
                    shard.sid,
                    lambda sup: sup.claim(
                        shard.sid, self.n_shards, watermark, epoch, since
                    ),
                )
                partials.append(load_partial(blob))
            stats = aggregate.absorb(partials)
        m.counter("sharded.exchanges").inc()
        m.counter("sharded.exchange_bytes").inc(stats.nbytes)
        m.counter("sharded.exchange_resyncs").inc(stats.resyncs)
        m.counter("sharded.exchange_delta_entries").inc(stats.entries)

    def shard_for(self, author: str) -> int:
        """The shard authoritative for *author* (the routing rule)."""
        return shard_of(author, self.n_shards)

    def user_score(self, author: str) -> dict:
        """:meth:`DetectionEngine.user_score`, from the owner shard."""
        with self.metrics.time("sharded.query.user"):
            if self._page_mode:
                with self._aggregate_core() as core:
                    return core.user_score(author)
            return self._query(
                self.shard_for(author),
                lambda sup: sup.query("user_score", author),
            )

    def top_k_triplets(self, k: int = 10, by: str = "t") -> list[dict]:
        """Global top-k triplets.

        Replicated mode gathers each shard's owned candidates and k-way
        merges them; page mode reads the aggregate core's ranking.
        """
        _merge_key(by)  # validate the ranking before any pipe roundtrip
        if by == "c" and not self.config.compute_hypergraph:
            raise ValueError("ranking by C requires compute_hypergraph=True")
        with self.metrics.time("sharded.query.topk"):
            if self._page_mode:
                with self._aggregate_core() as core:
                    return core.top_k_triplets(k, by)
            per_shard = [
                self._query(
                    shard.sid,
                    lambda sup, sid=shard.sid: sup.query(
                        "owned_top_k_triplets", k, sid, self.n_shards, by
                    ),
                )
                for shard in self._shards
            ]
            return merge_topk(per_shard, k, by)

    def _gather_fragments(self) -> list[dict]:
        return [
            self._query(
                shard.sid,
                lambda sup, sid=shard.sid: sup.query(
                    "owned_component_fragment", sid, self.n_shards
                ),
            )
            for shard in self._shards
        ]

    def component_of(self, author: str) -> list[str]:
        """*author*'s component (replicated: boundary-edge union across shards)."""
        with self.metrics.time("sharded.query.component"):
            if self._page_mode:
                with self._aggregate_core() as core:
                    return core.component_of(author)
            return merged_component_of(self._gather_fragments(), author)

    def components(self) -> list[list[str]]:
        """All candidate networks (replicated: merged across shards)."""
        with self.metrics.time("sharded.query.component"):
            if self._page_mode:
                with self._aggregate_core() as core:
                    return core.components()
            return merge_components(
                self._gather_fragments(), self.config.min_component_size
            )

    def ci_edges(self) -> dict[tuple[str, str], int]:
        """Merged CI pair weights at the cutoff (page mode only).

        The parity harness diffs this against the single-engine oracle's
        :meth:`DetectionEngine.ci_edges`; replicated shards hold full
        engines, so there :meth:`shard_results` is the richer probe.
        """
        if not self._page_mode:
            raise ValueError("ci_edges() requires ingest_sharding='page'")
        with self._aggregate_core() as core:
            return core.ci_edges()

    def page_counts(self) -> dict[str, int]:
        """Merged nonzero ``P'`` entries keyed by author name (page mode)."""
        if not self._page_mode:
            raise ValueError("page_counts() requires ingest_sharding='page'")
        with self._aggregate_core() as core:
            return core.page_counts()

    def shard_results(self, shard_id: int = 0) -> PipelineResult:
        """One shard's engine state as a batch-compatible result snapshot.

        In replicated mode any shard holds the full live window, so this
        is the tier's raw-state probe; a page-mode shard returns its page
        slice under the ledger-only config.
        """
        return self._query(shard_id, lambda sup: sup.results())

    def status(self) -> dict:
        """Tier health + per-shard status (degraded shards summarized)."""
        shards = []
        for shard in self._shards:
            sup = shard.sup
            entry: dict = {
                "shard": shard.sid,
                "up": not sup.down,
                "failed": sup.degraded,
                "restarting": sup.restarting,
                "restarts": sup.restarts,
            }
            if entry["up"]:
                try:
                    entry["status"] = self._query(
                        shard.sid, lambda sup: sup.status()
                    )
                except ShardUnavailableError:
                    entry["up"] = False
            shards.append(entry)
        return {
            "sharded": True,
            "n_shards": self.n_shards,
            "ingest_sharding": self.ingest_sharding,
            "healthy": all(s["up"] for s in shards),
            "shards": shards,
            "metrics": self.metrics.to_dict(),
        }

    def close(self) -> None:
        """Stop every shard (waits out active restarts)."""
        for shard in self._shards:
            shard.sup.await_restart(30.0)
            with shard.lock:
                shard.sup.close()

    def __enter__(self) -> "ShardedDetectionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
