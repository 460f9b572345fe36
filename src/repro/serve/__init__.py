"""Online detection service — the paper's pipeline as a living system.

The batch pipeline (:mod:`repro.pipeline`) answers "who coordinated in
this dump?".  This package answers the monitoring question the paper's
future-work section gestures at: "who is coordinating *right now*?" —
a long-lived service that ingests a comment stream, maintains the
thresholded common-interaction graph over a sliding window, re-scores
only the triangles an update actually dirtied, and answers top-k /
per-user / component queries at any moment.

Layers (each usable on its own):

- :mod:`repro.serve.ingest` — bounded event queue with backpressure,
  watermark tracking, lenient ndjson streaming;
- :mod:`repro.serve.engine` — :class:`DetectionEngine`, the stateful
  core with the **exactness contract**: every answer equals a
  from-scratch batch run over the live window (enforced by
  :func:`repro.verify.online.run_online_parity`);
- :mod:`repro.serve.service` — :class:`DetectionService`, the event
  loop composing the two, driven by ``repro-botnets serve``;
- :mod:`repro.serve.metrics` — :class:`ServiceMetrics` counters,
  gauges, and latency histograms surfaced through ``status()``;
- :mod:`repro.serve.wal` — :class:`WriteAheadLog`, the segmented
  checksummed event journal the durability story is built on;
- :mod:`repro.serve.durable` — :class:`DurableDetectionService`,
  the crash-safe service (journal + snapshots + exact-replay
  recovery via :mod:`repro.store`);
- :mod:`repro.serve.supervisor` — :class:`ServeSupervisor`, the
  watchdog parent that restarts a killed durable child with capped
  backoff and sheds load when the restart budget is spent;
- :mod:`repro.serve.shard` — :class:`ShardedDetectionService`, N
  supervised engine shards partitioning ingest by stable page hash
  (:func:`page_shard_of`), answering every query from the exchange's
  aggregate;
- :mod:`repro.serve.exchange` — the sharded tier's claim exchange: each
  ingest shard answers a claim over its supervisor pipe with the
  ``w'``/``P'``/incidence entries it moved since its last applied
  answer, and :class:`ExchangeAggregate` sums them into one long-lived
  :class:`ScoringCore` (the engine's own thresholding, scoring and
  query code);
- :mod:`repro.serve.http` — :class:`HttpGateway`, the stdlib
  ``ThreadingHTTPServer`` front door (``/topk``, ``/user/<id>/score``,
  ``/component/<id>``, ``/status``, ``/metrics`` in Prometheus text
  exposition via :func:`prometheus_text`);
- :mod:`repro.serve.layers` — :class:`MultiLayerDetectionEngine`, one
  live engine per action layer behind a single query surface
  (``/topk?layer=``), with per-layer gauges and fused multi-layer
  scores.
"""

from repro.serve.engine import BatchReport, DetectionEngine, ScoringCore
from repro.serve.exchange import (
    ExchangeAggregate,
    PartialExchangeError,
    PartialWeights,
)
from repro.serve.layers import MultiLayerDetectionEngine
from repro.serve.ingest import (
    Event,
    EventQueue,
    WatermarkTracker,
    iter_ndjson_events,
    page_shard_of,
)
from repro.serve.durable import DurableDetectionService
from repro.serve.http import HttpGateway
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    ServiceMetrics,
    prometheus_text,
)
from repro.serve.service import DetectionService
from repro.serve.shard import ShardedDetectionService, ShardUnavailableError
from repro.serve.supervisor import DegradedError, ServeSupervisor
from repro.serve.wal import WriteAheadLog, read_wal, wal_end_state

__all__ = [
    "BatchReport",
    "Counter",
    "DetectionEngine",
    "DegradedError",
    "DetectionService",
    "DurableDetectionService",
    "Event",
    "EventQueue",
    "ExchangeAggregate",
    "Gauge",
    "Histogram",
    "HttpGateway",
    "MultiLayerDetectionEngine",
    "PartialExchangeError",
    "PartialWeights",
    "ScoringCore",
    "ServeSupervisor",
    "ServiceMetrics",
    "ShardUnavailableError",
    "ShardedDetectionService",
    "WatermarkTracker",
    "WriteAheadLog",
    "iter_ndjson_events",
    "page_shard_of",
    "prometheus_text",
    "read_wal",
    "wal_end_state",
]
