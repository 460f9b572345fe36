"""Stdlib HTTP gateway over the (sharded) detection service.

:class:`HttpGateway` exposes the serving tier's query surface on a
``http.server.ThreadingHTTPServer`` — no runtime dependency beyond the
standard library:

======================  =====================================================
endpoint                answer
======================  =====================================================
``GET /topk?k=&by=``    global top-k triplets
``GET /user/<id>/score``  per-author live summary
``GET /component/<id>``   the author's component
``GET /status``         tier + per-shard status JSON
``GET /metrics``        Prometheus text exposition of the service registry
``GET /healthz``        ``ok`` when every shard is up, 503 otherwise
======================  =====================================================

On a sharded tier every query answer comes from the one cross-shard
aggregate (:mod:`repro.serve.exchange`).  Error mapping is typed: a bad
parameter is 400, an unknown route 404, a down shard
(:class:`~repro.serve.shard.ShardUnavailableError`, or a bare
supervisor's :class:`~repro.serve.supervisor.DegradedError` while it
restarts or once it is degraded) is **503 with a ``Retry-After``
hint** — on a sharded tier
every query that must exchange 503s until the shard is back, since the
exchange needs every shard.  Every request lands in the shared
:class:`~repro.serve.metrics.ServiceMetrics` registry (per-endpoint
latency histograms + status-class counters), which is itself what
``/metrics`` renders — the gateway is self-observing.

The service only needs the query quartet ``top_k_triplets`` /
``user_score`` / ``component_of`` / ``status``.  ``serve --http`` fronts
the :class:`~repro.serve.shard.ShardedDetectionService` (one shard under
``--supervise``); a bare :class:`~repro.serve.supervisor.ServeSupervisor`
or a plain :class:`~repro.serve.service.DetectionService` fit too.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro.serve.metrics import ServiceMetrics, prometheus_text
from repro.serve.shard import ShardUnavailableError
from repro.serve.supervisor import DegradedError

__all__ = ["HttpGateway"]

RETRY_AFTER_S = 1


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as separate writes; without TCP_NODELAY a
    # keep-alive client waits out a delayed ACK (~40 ms) on every reply.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics registry's job

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        gateway = self.server.gateway  # type: ignore[attr-defined]
        gateway.handle(self)


class HttpGateway:
    """Serve the detection query surface over HTTP (see module docs).

    Parameters
    ----------
    service:
        Any object with ``top_k_triplets`` / ``user_score`` /
        ``component_of`` / ``status``.
    host / port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`address`).
    metrics:
        Registry for request counters and latency histograms; defaults
        to the service's own so one ``/metrics`` page shows both sides.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: ServiceMetrics | None = None,
        namespace: str = "repro",
    ) -> None:
        self.service = service
        if metrics is None:
            metrics = getattr(service, "metrics", None) or ServiceMetrics()
        self.metrics = metrics
        self.namespace = namespace
        self._httpd = ThreadingHTTPServer((host, int(port)), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.gateway = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL of the bound gateway."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HttpGateway":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="http-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, close the socket, join the serve thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "HttpGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request handling (called from server threads) ---------------------
    def handle(self, request: BaseHTTPRequestHandler) -> None:
        """Route one GET; all error mapping funnels through here."""
        split = urlsplit(request.path)
        parts = [unquote(p) for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        self.metrics.counter("http.requests").inc()
        try:
            endpoint, payload = self._dispatch(parts, query)
        except ShardUnavailableError as exc:
            self._send_json(
                request,
                503,
                {"error": str(exc), "shard": exc.shard_id},
                retry_after=True,
            )
        except DegradedError as exc:
            self._send_json(
                request, 503, {"error": str(exc)}, retry_after=True
            )
        except ValueError as exc:
            self._send_json(request, 400, {"error": str(exc)})
        except LookupError as exc:
            self._send_json(request, 404, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - boundary of the server
            self._send_json(
                request, 500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        else:
            if endpoint == "metrics":
                self._send_text(request, 200, payload)
            elif endpoint == "healthz" and payload != "ok":
                self._send_text(request, 503, payload, retry_after=True)
            elif endpoint == "healthz":
                self._send_text(request, 200, payload)
            else:
                self._send_json(request, 200, payload)

    def _dispatch(self, parts: list[str], query: dict) -> tuple[str, object]:
        if parts == ["topk"]:
            with self.metrics.time("http.latency.topk"):
                k = _int_param(query, "k", 10)
                by = _str_param(query, "by", "t")
                layer = _str_param(query, "layer", "")
                if layer:
                    try:
                        rows = self.service.top_k_triplets(
                            k, by=by, layer=layer
                        )
                    except TypeError:
                        raise ValueError(
                            "this deployment serves a single layer; "
                            "drop the layer= parameter"
                        ) from None
                    return "topk", {
                        "k": k,
                        "by": by,
                        "layer": layer,
                        "rows": rows,
                    }
                return "topk", {
                    "k": k,
                    "by": by,
                    "rows": self.service.top_k_triplets(k, by=by),
                }
        if len(parts) == 3 and parts[0] == "user" and parts[2] == "score":
            with self.metrics.time("http.latency.user"):
                return "user", self.service.user_score(parts[1])
        if len(parts) == 2 and parts[0] == "component":
            with self.metrics.time("http.latency.component"):
                members = self.service.component_of(parts[1])
                return "component", {
                    "author": parts[1],
                    "size": len(members),
                    "members": members,
                }
        if parts == ["status"]:
            with self.metrics.time("http.latency.status"):
                return "status", self.service.status()
        if parts == ["metrics"]:
            return "metrics", prometheus_text(
                self.metrics, namespace=self.namespace
            )
        if parts == ["healthz"]:
            healthy = True
            status = getattr(self.service, "status", None)
            if callable(status):
                healthy = bool(self.service.status().get("healthy", True))
            return "healthz", "ok" if healthy else "degraded"
        raise LookupError(f"no such endpoint: /{'/'.join(parts)}")

    # -- response helpers --------------------------------------------------
    def _send_json(
        self,
        request: BaseHTTPRequestHandler,
        code: int,
        payload: object,
        *,
        retry_after: bool = False,
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self._send(request, code, body, "application/json", retry_after)

    def _send_text(
        self,
        request: BaseHTTPRequestHandler,
        code: int,
        payload: str,
        *,
        retry_after: bool = False,
    ) -> None:
        self._send(
            request,
            code,
            str(payload).encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            retry_after,
        )

    def _send(
        self,
        request: BaseHTTPRequestHandler,
        code: int,
        body: bytes,
        content_type: str,
        retry_after: bool,
    ) -> None:
        self.metrics.counter(f"http.status.{code // 100}xx").inc()
        try:
            request.send_response(code)
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(body)))
            if retry_after:
                request.send_header("Retry-After", str(RETRY_AFTER_S))
            request.end_headers()
            request.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.metrics.counter("http.client_disconnects").inc()


def _int_param(query: dict, name: str, default: int) -> int:
    raw = query.get(name, [None])[0]
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"parameter {name!r} must be an integer, got {raw!r}")


def _str_param(query: dict, name: str, default: str) -> str:
    raw = query.get(name, [None])[0]
    return default if raw is None else str(raw)
