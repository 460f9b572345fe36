"""Tests for the stdlib HTTP gateway (routing, errors, metrics, 503s)."""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline.config import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import (
    DetectionService,
    HttpGateway,
    ShardedDetectionService,
    shard_of,
)

pytestmark = pytest.mark.serve

CONFIG = PipelineConfig(
    window=TimeWindow(0, 120),
    min_triangle_weight=1,
    min_component_size=2,
    author_filter=AuthorFilter.none(),
    compute_hypergraph=True,
)


def events(n=300):
    return [("u%d" % (i % 12), "p%d" % (i % 4), i) for i in range(n)]


@pytest.fixture()
def gateway():
    svc = DetectionService(CONFIG, window_horizon=10_000, batch_size=32)
    svc.run_events(events())
    with HttpGateway(svc) as gw:
        yield gw


def get_json(gw, path):
    with urllib.request.urlopen(gw.url + path, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def get_text(gw, path):
    with urllib.request.urlopen(gw.url + path, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestKeepAlive:
    def test_sequential_gets_on_one_connection_do_not_stall(self, gateway):
        # Each reply is two writes (headers, body); with Nagle on, every
        # one of them waits out the client's delayed ACK (~40 ms).
        conn = http.client.HTTPConnection(*gateway.address, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200 and resp.read() == b"ok"
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.150, f"10 keep-alive GETs took {elapsed:.3f}s"


class TestEndpoints:
    def test_topk_matches_service(self, gateway):
        status, body = get_json(gateway, "/topk?k=5&by=t")
        assert status == 200
        assert body["k"] == 5 and body["by"] == "t"
        oracle = gateway.service.top_k_triplets(5, by="t")
        assert body["rows"] == json.loads(json.dumps(oracle, default=str))

    def test_user_score(self, gateway):
        status, body = get_json(gateway, "/user/u0/score")
        assert status == 200
        assert body["author"] == "u0"
        assert body == json.loads(
            json.dumps(gateway.service.user_score("u0"), default=str)
        )

    def test_component(self, gateway):
        status, body = get_json(gateway, "/component/u0")
        assert status == 200
        assert body["author"] == "u0"
        assert body["size"] == len(body["members"])
        assert body["members"] == gateway.service.component_of("u0")

    def test_status_and_healthz(self, gateway):
        status, body = get_json(gateway, "/status")
        assert status == 200 and body["live_comments"] > 0
        code, text = get_text(gateway, "/healthz")
        assert code == 200 and text == "ok"

    def test_metrics_exposition(self, gateway):
        get_json(gateway, "/topk?k=3")  # populate a latency histogram
        code, text = get_text(gateway, "/metrics")
        assert code == 200
        assert "repro_http_requests_total" in text
        assert "repro_http_latency_topk_bucket" in text
        assert "nan" not in text.lower()
        for line in text.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])  # every sample parses

    def test_absent_user_is_answered_not_errored(self, gateway):
        status, body = get_json(gateway, "/user/nobody/score")
        assert status == 200 and body["present"] is False
        status, body = get_json(gateway, "/component/nobody")
        assert status == 200 and body["size"] == 0


class TestErrorMapping:
    def expect(self, gw, path):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(gw.url + path, timeout=10)
        return excinfo.value

    def test_bad_parameter_is_400(self, gateway):
        err = self.expect(gateway, "/topk?k=banana")
        assert err.code == 400
        assert "k" in json.loads(err.read().decode())["error"]

    def test_bad_ranking_is_400(self, gateway):
        assert self.expect(gateway, "/topk?by=bogus").code == 400

    def test_unknown_route_is_404(self, gateway):
        assert self.expect(gateway, "/nosuch").code == 404
        assert self.expect(gateway, "/user/u0").code == 404  # missing /score

    def test_status_class_counters(self, gateway):
        get_json(gateway, "/topk")
        self.expect(gateway, "/nosuch")
        assert gateway.metrics.counter("http.status.2xx").value >= 1
        assert gateway.metrics.counter("http.status.4xx").value >= 1


class TestLifecycle:
    def test_port_zero_binds_ephemeral(self):
        svc = DetectionService(CONFIG, window_horizon=10_000)
        with HttpGateway(svc) as gw:
            host, port = gw.address
            assert host == "127.0.0.1" and port > 0
            assert gw.url == f"http://127.0.0.1:{port}"

    def test_close_stops_serving(self):
        svc = DetectionService(CONFIG, window_horizon=10_000)
        gw = HttpGateway(svc).start()
        url = gw.url
        gw.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/status", timeout=1)


@pytest.mark.faults
class TestShardOutageOverHttp:
    def test_503_scoped_to_dead_keyspace_then_full_recovery(self, tmp_path):
        stream = events(400)
        oracle = DetectionService(CONFIG, window_horizon=10_000, batch_size=32)
        oracle.run_events(stream)
        tier = ShardedDetectionService(
            CONFIG,
            n_shards=2,
            directory=tmp_path,
            window_horizon=10_000,
            batch_size=32,
            forward_batch=64,
            heartbeat_timeout=20.0,
            backoff_base=0.01,
            fsync="interval",
            snapshot_every=64,
        )
        try:
            tier.run_events(stream)
            victim = 0
            authors = ["u%d" % i for i in range(12)]
            victim_author = next(
                a for a in authors if shard_of(a, 2) == victim
            )
            other_author = next(
                a for a in authors if shard_of(a, 2) != victim
            )
            with HttpGateway(tier) as gw:
                tier._shards[victim].sup.kill_child()

                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{gw.url}/user/{victim_author}/score", timeout=10
                    )
                err = excinfo.value
                assert err.code == 503
                assert err.headers["Retry-After"] == "1"
                body = json.loads(err.read().decode())
                assert body["shard"] == victim

                # The surviving keyspace answers 200 — and exactly —
                # while the victim restarts.
                status, body = get_json(gw, f"/user/{other_author}/score")
                assert status == 200
                assert body == json.loads(
                    json.dumps(oracle.user_score(other_author), default=str)
                )

                # After the supervised restart the full surface is back.
                assert tier.await_healthy(timeout=30.0)
                status, body = get_json(gw, f"/user/{victim_author}/score")
                assert status == 200
                assert body == json.loads(
                    json.dumps(oracle.user_score(victim_author), default=str)
                )
                status, body = get_json(gw, "/topk?k=25")
                assert body["rows"] == json.loads(
                    json.dumps(oracle.top_k_triplets(25), default=str)
                )
                code, text = get_text(gw, "/healthz")
                assert code == 200 and text == "ok"
                assert gw.metrics.counter("http.status.5xx").value >= 1
        finally:
            tier.close()
