"""The serve workloads: durable single-engine ingest, and the sharded tier
behind the HTTP gateway with reads beside writes.

Everything is driven through public constructors and methods.  The traced
runs wrap public methods *on the instances built here* (never a class),
and read the program's own ``ServiceMetrics`` from ``status()``.
"""

from __future__ import annotations

import gc
import http.client
import statistics
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from repro.analysis.export import top_triplets_rows
from repro.exec import leaked_shm_files
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import CoordinationPipeline
from repro.projection.window import TimeWindow
from repro.serve import DurableDetectionService, HttpGateway, ShardedDetectionService
from repro.verify.chaos import diff_results

from benchmarks.e2e.checks import jsonable
from benchmarks.e2e.corpus import load_events
from benchmarks.e2e.spec import (
    BATCH_SIZE,
    DELTA,
    HORIZON_S,
    MIXED_ROUNDS,
    QUERY_BLOCKS,
    QUERY_CYCLES,
    RECOVER_REPS,
    RESTARTS_PER_ROUND,
    quiet,
    stream_share,
)
from benchmarks.e2e.tracing import Tracer, self_times

__all__ = ["mixed_plan", "mixed_oracle", "run_ingest", "run_mixed"]

AGGREGATES = ("topk", "user", "component")
#: Untimed query cycles at the head of each block.
WARM_CYCLES = 5


def _config(spec: dict) -> PipelineConfig:
    return PipelineConfig(
        window=TimeWindow(*DELTA), min_triangle_weight=spec["cutoff"]
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ---------------------------------------------------------------------------
# serve-ingest
# ---------------------------------------------------------------------------


def run_ingest(job: dict, tracer: Tracer | None) -> dict:
    """Saturating write-only stream into a durable service, then reopen it."""
    spec, cfg = job["spec"], _config(job["spec"])
    out = {"metrics": {}, "attempted": 0, "failed": 0, "problems": []}
    t0 = time.perf_counter()
    events = load_events(Path(job["ndjson"]))[: job["n_events"]]
    root = Path(job["run_dir"])

    def open_service(name: str) -> DurableDetectionService:
        return DurableDetectionService(
            cfg,
            directory=root / name,
            fsync="interval",
            snapshot_on_close=False,
            snapshot_every=spec["snapshot_every"],
            window_horizon=HORIZON_S,
            batch_size=BATCH_SIZE,
        )

    svc = open_service("durable")
    out["prepare_s"] = time.perf_counter() - t0
    try:
        if tracer is not None:
            for obj, attr, name in (
                (svc.queue, "offer", "serve.ingest.offer"),
                (svc.queue, "drain", "serve.ingest.drain"),
                (svc.wal, "append", "serve.wal.append"),
                (svc.wal, "sync", "serve.wal.sync"),
                (svc.engine, "ingest", "serve.engine.ingest"),
                (svc.engine, "advance", "serve.engine.advance"),
                (svc.engine, "compact", "serve.engine.compact"),
                (svc, "snapshot_now", "serve.durable.snapshot"),
                (svc, "tick", "serve.service.tick"),
            ):
                tracer.wrap(obj, attr, name)

        t0 = time.perf_counter()
        with tracer.span("run_events") if tracer is not None else nullcontext():
            consumed = svc.run_events(events)
            svc.wal.sync()
        ingest_s = time.perf_counter() - t0
        out["attempted"] += len(events)
        out["failed"] += svc.queue.dropped + (len(events) - consumed)

        before = svc.engine.snapshot()
        status = svc.status()
        wal_bytes = _dir_bytes(root / "durable" / "wal")
        snapshot_bytes = _dir_bytes(root / "durable" / "snapshots")
    finally:
        svc.close()

    # Reopens and query blocks alternate, so that the samples of each
    # metric span the whole tail of the run and not one instant of it.  A
    # reopened service holds the state the closed one had (checked), so a
    # question costs the same work on it.
    recover_times: list[float] = []
    block_p50: list[float] = []
    block_p95: list[float] = []
    for _ in range(RECOVER_REPS):
        out["attempted"] += 1
        t0 = time.perf_counter()
        reopened = open_service("durable")
        recover_times.append(time.perf_counter() - t0)
        try:
            report = reopened.recovery
            divergences = diff_results(before, reopened.engine.snapshot())
            for _ in range(QUERY_BLOCKS):
                latencies = _direct_queries(reopened, job["bot"], out)
                if latencies:
                    block_p50.append(statistics.median(latencies))
                    block_p95.append(percentile(latencies, 0.95))
        finally:
            reopened.close()
        if divergences:
            out["failed"] += 1
            out["problems"].append(f"recovered state differs: {divergences}")
    recover_s = quiet(recover_times)
    if not block_p50:
        return out

    if tracer is None:
        out["metrics"] = {
            "detect_s": ingest_s,
            "ingest_events_per_s": len(events) / ingest_s,
            "recover_s": recover_s,
            "query_p50_ms": 1000.0 * quiet(block_p50),
            "query_p95_ms": 1000.0 * quiet(block_p95),
        }
        out["samples"] = {
            "events": len(events),
            "reopens": len(recover_times),
            "query_blocks": len(block_p50),
            "cycles_per_block": QUERY_CYCLES,
        }
        return out

    totals, counts = self_times(tracer.spans)
    counters = status["metrics"]["counters"]
    histograms = status["metrics"]["histograms"]
    out["metrics"] = {
        "serve.ingest.offer_s": totals.get("serve.ingest.offer", 0.0),
        "serve.ingest.drain_s": totals.get("serve.ingest.drain", 0.0),
        "serve.service.tick_s": totals.get("serve.service.tick", 0.0),
        "serve.service.ticks": counts.get("serve.service.tick", 0),
        "serve.loop.residual_s": totals.get("run_events", 0.0),
        "serve.engine.ingest_s": totals.get("serve.engine.ingest", 0.0),
        "serve.engine.advance_s": totals.get("serve.engine.advance", 0.0),
        "serve.engine.compact_s": totals.get("serve.engine.compact", 0.0),
        "serve.engine.live_comments": status["live_comments"],
        "serve.engine.triangles": status["triangles"],
        "serve.engine.update_p50_ms": 1000.0 * histograms["engine.update"]["p50"],
        "serve.wal.append_s": totals.get("serve.wal.append", 0.0),
        "serve.wal.sync_s": totals.get("serve.wal.sync", 0.0),
        "serve.wal.records": status["wal_seq"],
        "serve.wal.bytes": wal_bytes,
        "serve.durable.snapshot_s": totals.get("serve.durable.snapshot", 0.0),
        "serve.durable.snapshots": counters.get("durable.snapshots", 0),
        "serve.durable.snapshot_bytes": snapshot_bytes,
        "serve.durable.records_replayed": report.records_replayed,
        "serve.durable.recover_events_per_s": report.events_replayed / recover_s,
        "trace.overhead_ratio": tracer.overhead_ratio(ingest_s),
    }
    out["samples"] = {"events": len(events), "ingest_s": ingest_s}
    return out


def _direct_queries(svc, bot: str, out: dict) -> list[float]:
    """One block of the three analyst questions as direct calls.

    Two of the three take microseconds in-process, so a sample is a whole
    cycle: a median over single calls would sit on timer noise.  The first
    cycles after a reopen rebuild the service's lazy views and are not
    timed.  The cyclic collector is off while a block runs, as ``timeit``
    has it: with a 280 MB engine on the heap the tail of a 0.6 ms call is
    otherwise the collector's schedule, not the query.
    """
    latencies = []
    gc.disable()
    try:
        for cycle in range(-WARM_CYCLES, QUERY_CYCLES):
            out["attempted"] += 1
            t0 = time.perf_counter()
            try:
                svc.top_k_triplets(10)
                svc.user_score(bot)
                svc.component_of(bot)
            except Exception as exc:  # a failed query misses every bound
                out["failed"] += 1
                out["problems"].append(f"direct query raised: {exc!r}")
                continue
            if cycle >= 0:
                latencies.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return latencies


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def mixed_plan(spec: dict, n_stream: int, seconds: float) -> tuple[int, int]:
    """Event counts of phase A (saturating) and phase B (open loop)."""
    n_a = int(n_stream * spec["warm_share"] * stream_share(seconds))
    n_b = min(int(spec["rate"] * spec["load_share"] * seconds), n_stream - n_a)
    return n_a, n_b


def mixed_oracle(spec: dict, events: list, n_total: int) -> dict:
    """What a from-scratch batch run over the final live window answers.

    The serve tier's contract is that every answer equals this; it shares
    no code with the queue, the shards, the exchange or the gateway.
    Events arrive in time order with no allowed lateness, so the live
    window is the last ``HORIZON_S`` seconds up to the newest event.
    """
    consumed = events[:n_total]
    cutoff = consumed[-1][2] - HORIZON_S
    cfg = _config(spec)
    result = CoordinationPipeline(cfg).run(
        BipartiteTemporalMultigraph.from_comments(
            [event for event in consumed if event[2] >= cutoff]
        )
    )
    components = [sorted(names) for names in result.component_name_lists()]
    components.sort(key=lambda names: (-len(names), names))
    return jsonable(
        {"top": top_triplets_rows(result, 25), "components": components}
    )


def _get(address: tuple[str, int], path: str) -> bool:
    """One GET on a connection of its own; ``True`` for a 200.

    A connection per request is what ``urllib`` and ``curl`` scripts do.
    (A keep-alive client measures something else: the gateway sends
    headers and body as two small writes, and the second waits ~40 ms
    for the client's delayed ACK.)
    """
    conn = http.client.HTTPConnection(*address, timeout=10.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


class _Client(threading.Thread):
    """One closed-loop analyst: asks, waits for the reply, asks again."""

    def __init__(self, address: tuple[str, int], bot: str, direct=None) -> None:
        super().__init__(name="analyst", daemon=True)
        self.address = address
        self.cycle = [
            ("topk", "/topk?k=10"),
            ("user", f"/user/{bot}/score"),
            ("component", f"/component/{bot}"),
            ("status", "/status"),
        ]
        self.direct = direct
        self.stop = threading.Event()
        self.samples: list[tuple[str, float, bool]] = []

    def run(self) -> None:
        while not self.stop.is_set():
            for name, path in self.cycle:
                t0 = time.perf_counter()
                ok = _get(self.address, path)
                self.samples.append((name, time.perf_counter() - t0, ok))
            if self.direct is not None:
                t0 = time.perf_counter()
                self.direct()
                self.samples.append(("direct", time.perf_counter() - t0, True))


def _open_tier(cfg: PipelineConfig, spec: dict) -> ShardedDetectionService:
    return ShardedDetectionService(
        cfg,
        n_shards=spec["n_shards"],
        ingest_sharding="page",
        window_horizon=HORIZON_S,
        batch_size=BATCH_SIZE,
    )


def _restart_seconds(cfg: PipelineConfig, spec: dict) -> float:
    """Fresh tier + gateway up to the first 200 on ``/status``, then down."""
    t0 = time.perf_counter()
    with _open_tier(cfg, spec) as tier, HttpGateway(tier) as gateway:
        if not _get(gateway.address, "/status"):
            raise RuntimeError("/status did not answer 200 on start")
        return time.perf_counter() - t0


def _phase_a(tier, events: list, out: dict) -> float:
    """Saturating ingest of *events* with no readers; returns its wall time."""
    t0 = time.perf_counter()
    consumed = tier.run_events(events)
    wall = time.perf_counter() - t0
    out["attempted"] += len(events)
    out["failed"] += len(events) - consumed
    return wall


def run_mixed(job: dict, tracer: Tracer | None) -> dict:
    """Sharded tier behind HTTP: saturate, then open-loop writes + a reader.

    Untraced, the run is ``MIXED_ROUNDS`` rounds of bare restarts followed
    by a fresh tier that runs phase A, so that ``recover_s`` and the
    phase A rate each have samples seconds apart; the last round's tier
    goes on to phase B and the final check.
    """
    spec, cfg = job["spec"], _config(job["spec"])
    out = {"metrics": {}, "attempted": 0, "failed": 0, "problems": []}
    n_a, n_b = job["n_a"], job["n_b"]
    t0 = time.perf_counter()
    events = load_events(Path(job["ndjson"]))[: n_a + n_b]
    load_s = time.perf_counter() - t0
    restarts: list[float] = []
    phase_a: list[float] = []
    rounds = MIXED_ROUNDS if tracer is None else 1
    for round_index in range(rounds):
        if tracer is None:
            # The tier keeps no durable state in page mode, so coming back
            # means starting over: that restart is this workload's recover_s.
            restarts += [_restart_seconds(cfg, spec) for _ in range(RESTARTS_PER_ROUND)]
            out["attempted"] += RESTARTS_PER_ROUND
        t0 = time.perf_counter()
        tier = _open_tier(cfg, spec)
        try:
            gateway = HttpGateway(tier).start()
            try:
                if round_index == 0:
                    out["prepare_s"] = load_s + time.perf_counter() - t0
                if round_index == rounds - 1:
                    _drive_mixed(job, tier, gateway, events, tracer, out, phase_a)
                else:
                    phase_a.append(_phase_a(tier, events[:n_a], out))
            finally:
                gateway.close()
        finally:
            tier.close()
    if tracer is None and out["metrics"]:
        out["metrics"]["recover_s"] = quiet(restarts)
    leaked = leaked_shm_files()
    if leaked:
        out["problems"].append(f"leaked shm files: {leaked[:3]}")
    return out


def _drive_mixed(job, tier, gateway, events, tracer, out, phase_a) -> None:
    spec, n_a, n_b = job["spec"], job["n_a"], job["n_b"]
    exchanges = tier.metrics.counter("sharded.exchanges")
    feeder = {"event_time": 0}
    useful = {"calls": 0, "count": 0, "last": -1}
    direct = None
    if tracer is not None:
        tracer.wrap(tier, "submit", "serve.shard.submit")
        tracer.wrap(tier, "flush", "serve.shard.flush")

        def watched(name: str) -> None:
            """Span the query, and note whether its exchange saw new events."""
            inner = getattr(tier, name)

            def call(*args, **kwargs):
                useful["calls"] += 1
                before = exchanges.value
                with tracer.span(f"serve.shard.{name}"):
                    result = inner(*args, **kwargs)
                if exchanges.value > before and feeder["event_time"] > useful["last"]:
                    useful["count"] += 1
                    useful["last"] = feeder["event_time"]
                return result

            setattr(tier, name, call)

        for name in ("top_k_triplets", "user_score", "component_of"):
            watched(name)

        def direct() -> None:
            tier.top_k_triplets(10)

    # Phase A — saturating ingest, no readers.
    phase_a.append(_phase_a(tier, events[:n_a], out))
    phase_a_s = quiet(phase_a)
    exchanges_a = exchanges.value

    # Phase B — open-loop writes on a fixed schedule beside one closed-loop reader.
    client = _Client(gateway.address, job["bot"], direct)
    client.start()
    lateness = []
    rate = spec["rate"]
    t0 = time.perf_counter()
    try:
        for i in range(n_b):
            due = t0 + i / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            lateness.append(now - due)
            event = events[n_a + i]
            out["attempted"] += 1
            if not tier.submit(event):
                out["failed"] += 1
            feeder["event_time"] = event[2]
        phase_b_s = time.perf_counter() - t0
    finally:
        client.stop.set()
        client.join(timeout=30.0)
    if client.is_alive():
        out["problems"].append("analyst client did not stop")
    exchanges_b = exchanges.value - exchanges_a
    calls_b, useful_b = useful["calls"], useful["count"]

    tier.flush()
    answers = jsonable(
        {"top": tier.top_k_triplets(25), "components": tier.components()}
    )
    if answers != job["oracle"]:
        out["problems"].append("final top-k/components differ from the oracle")
    if not answers["top"] or not answers["components"]:
        out["problems"].append("final answers are empty: nothing was checked")

    http_samples = [s for s in client.samples if s[0] != "direct"]
    out["attempted"] += len(http_samples)
    out["failed"] += sum(1 for s in http_samples if not s[2])
    aggregate = [s[1] for s in http_samples if s[0] in AGGREGATES and s[2]]
    if len(aggregate) < 2:
        out["problems"].append("fewer than two aggregate queries completed")
        return

    if tracer is None:
        out["metrics"] = {
            "detect_s": phase_a_s,
            "ingest_events_per_s": n_a / phase_a_s,
            "query_p50_ms": 1000.0 * statistics.median(aggregate),
            "query_p95_ms": 1000.0 * percentile(aggregate, 0.95),
        }
        out["samples"] = {
            "events_a": n_a,
            "phase_a_walls_s": phase_a,
            "events_b": n_b,
            "aggregate_queries": len(aggregate),
            "beyond_p95": len(aggregate) - int(0.95 * len(aggregate)) - 1,
            "late_p95_ms": 1000.0 * percentile(lateness, 0.95) if lateness else 0.0,
        }
        return

    status = tier.status()
    counters = status["metrics"]["counters"]
    histograms = status["metrics"]["histograms"]
    shards = [entry["status"] for entry in status["shards"]]
    per_shard = [s["submitted_events"] for s in shards]
    totals, _ = self_times(tracer.spans)

    def p50_ms(name: str) -> float:
        values = [s[1] for s in client.samples if s[0] == name and s[2]]
        return 1000.0 * statistics.median(values) if values else 0.0

    http_all = [s[1] for s in http_samples if s[2]]
    out["metrics"] = {
        "serve.shard.submit_s": totals.get("serve.shard.submit", 0.0),
        "serve.shard.flush_s": totals.get("serve.shard.flush", 0.0),
        "serve.shard.skew": max(per_shard) / (sum(per_shard) / len(per_shard)),
        "serve.shard.backpressure": counters.get("sharded.backpressure", 0),
        "serve.supervisor.restarts": sum(e["restarts"] for e in status["shards"]),
        "serve.engine.update_p50_ms": 1000.0
        * statistics.fmean(
            s["metrics"]["histograms"]["engine.update"]["p50"] for s in shards
        ),
        "serve.engine.live_comments": sum(s["live_comments"] for s in shards),
        "serve.exchange.count": counters.get("sharded.exchanges", 0),
        "serve.exchange.bytes": counters.get("sharded.exchange_bytes", 0),
        "serve.exchange.p50_ms": 1000.0 * histograms["sharded.exchange"]["p50"],
        "serve.exchange.per_query": exchanges_b / max(calls_b, 1),
        "serve.exchange.useful_ratio": useful_b / max(exchanges_b, 1),
        "serve.shard.query_topk_p50_ms": p50_ms("direct"),
        "serve.http.overhead_ms": p50_ms("topk") - p50_ms("direct"),
        "serve.http.topk_p50_ms": p50_ms("topk"),
        "serve.http.user_p50_ms": p50_ms("user"),
        "serve.http.component_p50_ms": p50_ms("component"),
        "serve.http.status_p50_ms": p50_ms("status"),
        "serve.http.query_p99_ms": 1000.0 * percentile(http_all, 0.99),
        "serve.http.queries": len(http_samples),
        "serve.loadgen.late_p95_ms": 1000.0 * percentile(lateness, 0.95),
        "serve.loadgen.late_max_ms": 1000.0 * max(lateness),
        "serve.loadgen.rate_achieved": n_b / phase_b_s,
        "trace.overhead_ratio": tracer.overhead_ratio(phase_a_s + phase_b_s),
    }
    out["samples"] = {"aggregate_queries": len(aggregate), "phase_a_s": phase_a_s}
