"""Serving SLOs: sustained ingest + concurrent HTTP query load.

The sharded query tier exists to answer "who is coordinating right
now?" *while* the stream is still arriving.  This bench drives the
whole deployed stack at once — a 2-shard
:class:`~repro.serve.ShardedDetectionService` ingesting the clustered
serve corpus from the main thread while HTTP client threads hammer the
:class:`~repro.serve.HttpGateway` with the production query mix
(``/topk``, ``/user/<id>/score``, ``/component/<id>``, ``/status``) —
and reports ingest throughput plus client-observed query latency
percentiles.

The committed claims (``BENCH_serve_http*.json``, gated by
``repro.verify.bench_gate``): every query under load answers **200**,
the final merged answers are **bit-identical** to a single-engine
oracle over the same stream, and client-observed **p99 stays inside
the committed SLO** (generous — CI hosts are small and share one core
between ingest, two shard processes, and the client threads; the SLO
guards against order-of-magnitude regressions like an accidental
full-rescore per query, not millisecond drift).

``BENCH_SERVE_HTTP_SCALE=tiny`` shrinks the corpus ~8× (CI smoke) and
writes ``BENCH_serve_http_smoke.json``; the full run writes
``BENCH_serve_http.json``.  Separate files keep the two scales from
being compared against each other (same split as the other benches).
"""

import json
import os
import random
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import DetectionService, HttpGateway, ShardedDetectionService
from repro.util.io import atomic_write_text
from repro.util.timers import Timer
from repro.verify.chaos import diff_results

RESULTS_DIR = Path(__file__).parent / "results"

TINY = os.environ.get("BENCH_SERVE_HTTP_SCALE", "").lower() == "tiny"
N_EVENTS = 2_500 if TINY else 20_000
N_SHARDS = 2
QUERY_THREADS = 3
MIN_QUERIES = 60  # keep percentiles meaningful even on a slow host
SLO_P99_S = 2.5 if TINY else 5.0  # client-observed, 1-core CI budget


@pytest.fixture(scope="module")
def event_stream():
    """The serve-throughput corpus, time-sorted.

    In-order delivery makes the final drained state independent of
    micro-batch boundaries, which is what lets the sharded tier be
    diffed bit-for-bit against the single-engine oracle.
    """
    rng = random.Random(77)
    events = []
    t = 0
    for _ in range(N_EVENTS):
        epoch = t // 3_000
        if rng.random() < 0.6:
            author = f"bot{epoch % 4}_{rng.randrange(10)}"
            page = f"hot{epoch % 4}_{rng.randrange(5)}"
        else:
            author = f"user{rng.randrange(2_000)}"
            page = f"page{rng.randrange(800)}"
        events.append((author, page, t + rng.randrange(-30, 30)))
        t += rng.randrange(0, 3)
    events.sort(key=lambda e: e[2])
    return events


def _service_kwargs():
    return dict(
        window_horizon=25_000,
        batch_size=64,
        forward_batch=128,
        queue_capacity=8_192,
        heartbeat_timeout=60.0,
        query_timeout=30.0,
    )


class _QueryWorker(threading.Thread):
    """One closed-loop HTTP client cycling through the query mix."""

    def __init__(self, base_url: str, stop: threading.Event, seed: int):
        super().__init__(daemon=True, name=f"query-{seed}")
        self.base_url = base_url
        self.stop_event = stop
        rng = random.Random(seed)
        authors = [f"bot{c}_{i}" for c in range(4) for i in range(10)]
        self.paths = [
            "/topk?k=10",
            f"/user/{rng.choice(authors)}/score",
            f"/component/{rng.choice(authors)}",
            "/status",
        ]
        self.latencies: list[float] = []
        self.bad: list[tuple[str, int]] = []

    def run(self) -> None:
        i = 0
        while not self.stop_event.is_set():
            path = self.paths[i % len(self.paths)]
            i += 1
            with Timer() as t:
                try:
                    with urllib.request.urlopen(
                        self.base_url + path, timeout=30
                    ) as resp:
                        resp.read()
                        code = resp.status
                except urllib.error.HTTPError as exc:  # noqa: PERF203
                    code = exc.code
            self.latencies.append(t.elapsed)
            if code != 200:
                self.bad.append((path, code))


def _percentile(sorted_values: list[float], q: float) -> float:
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def test_bench_serve_http(event_stream, report_sink):
    config = PipelineConfig(
        window=TimeWindow(0, 60),
        min_triangle_weight=3,
        min_component_size=3,
        author_filter=AuthorFilter.none(),
    )

    oracle = DetectionService(
        config, window_horizon=25_000, batch_size=64, queue_capacity=8_192
    )
    oracle.run_events(event_stream)

    tier = ShardedDetectionService(config, n_shards=N_SHARDS, **_service_kwargs())
    stop = threading.Event()
    workers = [
        _QueryWorker("", stop, seed) for seed in range(QUERY_THREADS)
    ]
    try:
        with HttpGateway(tier) as gateway:
            for w in workers:
                w.base_url = gateway.url
                w.start()
            with Timer() as t_ingest:
                consumed = tier.run_events(event_stream)
            # Keep querying briefly if the host was too slow to collect
            # a meaningful sample during ingest itself.
            while sum(len(w.latencies) for w in workers) < MIN_QUERIES:
                stop.wait(0.05)
            stop.set()
            for w in workers:
                w.join(timeout=60)

        assert consumed == N_EVENTS
        ingest_tput = consumed / max(t_ingest.elapsed, 1e-9)

        # Query load must never have broken a request: no 503s (no shard
        # died), no 4xx/5xx (every path in the mix is valid).
        bad = [b for w in workers for b in w.bad]
        assert bad == [], f"non-200 responses under load: {bad[:5]}"

        # Exactness under load: the sharded answers equal the oracle's.
        assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
        assert tier.components() == oracle.components()
        assert diff_results(oracle.engine.snapshot(), tier.shard_results(0)) == []
    finally:
        stop.set()
        tier.close()

    latencies = sorted(lat for w in workers for lat in w.latencies)
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)

    payload = {
        "scale": "tiny" if TINY else "full",
        "n_events": N_EVENTS,
        "shards": N_SHARDS,
        "query_threads": QUERY_THREADS,
        "ingest": {
            "seconds": round(t_ingest.elapsed, 6),
            "events_per_s": round(ingest_tput, 1),
        },
        "query": {
            "count": len(latencies),
            "p50_s": round(p50, 6),
            "p99_s": round(p99, 6),
        },
        "slo": {"p99_s": SLO_P99_S},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    name = "BENCH_serve_http_smoke.json" if TINY else "BENCH_serve_http.json"
    atomic_write_text(RESULTS_DIR / name, json.dumps(payload, indent=2) + "\n")
    report_sink(
        "serve_http",
        "\n".join(
            [
                f"Sharded HTTP serving ({'tiny' if TINY else 'full'} scale, "
                f"{N_EVENTS:,} events, {N_SHARDS} shards, "
                f"{QUERY_THREADS} query clients)",
                f"ingest  {t_ingest.elapsed * 1e3:9.1f} ms   "
                f"{ingest_tput:10,.0f} events/s",
                f"queries {len(latencies):6d} served   "
                f"p50={p50 * 1e3:8.1f} ms   p99={p99 * 1e3:8.1f} ms",
            ]
        ),
    )

    # The committed SLO: client-observed p99 under sustained ingest.
    assert p99 <= SLO_P99_S, (
        f"query p99 {p99:.3f}s exceeds the {SLO_P99_S:g}s SLO"
    )
