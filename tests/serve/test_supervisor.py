"""Tests for ServeSupervisor: watchdog, background restarts, replay."""

import os
import signal
import time

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import DetectionService, ServeSupervisor
from repro.verify.chaos import diff_results

pytestmark = pytest.mark.serve

CONFIG = PipelineConfig(
    window=TimeWindow(0, 120),
    min_triangle_weight=1,
    min_component_size=2,
    author_filter=AuthorFilter.none(),
)


def stream(n=600):
    # In-order timestamps: the final drained state is then independent of
    # micro-batch boundaries, so it can be compared across process
    # topologies (supervised vs serial) exactly.
    return [("u%d" % (i % 20), "p%d" % (i % 6), i) for i in range(n)]


def make_supervisor(tmp_path, **overrides) -> ServeSupervisor:
    kwargs = dict(
        directory=tmp_path,
        forward_batch=64,
        heartbeat_timeout=20.0,
        backoff_base=0.01,
        backoff_cap=0.05,
        window_horizon=600,
        batch_size=32,
        snapshot_every=4,
        fsync="interval",
    )
    kwargs.update(overrides)
    return ServeSupervisor(CONFIG, **kwargs)


def serial_snapshot(events):
    svc = DetectionService(CONFIG, window_horizon=600, batch_size=32)
    svc.run_events(events)
    svc.drain_all()
    return svc.engine.snapshot()


class TestHappyPath:
    def test_end_to_end_matches_serial(self, tmp_path):
        events = stream()
        with make_supervisor(tmp_path) as sup:
            assert sup.child_pid is not None
            consumed = sup.run_events(events)
            assert consumed == len(events)
            assert diff_results(serial_snapshot(events), sup.results()) == []
            status = sup.status()
        assert status["restarts"] == 0
        assert not status["degraded"]
        assert status["acked_events"] == len(events)
        assert status["retained_events"] == 0

    def test_status_merges_child_and_supervision(self, tmp_path):
        with make_supervisor(tmp_path) as sup:
            sup.run_events(stream(100))
            status = sup.status()
        assert status["supervised"] is True
        assert "live_comments" in status  # child engine status came through
        assert "wal_seq" in status  # durable status came through

    def test_query_op_reaches_every_allowlisted_engine_method(self, tmp_path):
        events = stream(300)
        oracle = DetectionService(CONFIG, window_horizon=600, batch_size=32)
        oracle.run_events(events)
        engine = oracle.engine
        with make_supervisor(tmp_path) as sup:
            sup.run_events(events)
            assert sup.top_k_triplets(3, by="min_weight") == engine.top_k_triplets(
                3, by="min_weight"
            )
            assert sup.user_score("u3") == engine.user_score("u3")
            assert sup.component_of("u3") == engine.component_of("u3")
            assert sup.query("components") == engine.components()

    def test_bad_query_fails_the_request_not_the_child(self, tmp_path):
        with make_supervisor(tmp_path) as sup:
            sup.run_events(stream(100))
            pid = sup.child_pid
            # Off the allowlist (even though the engine has the attribute),
            # and a failing allowlisted query: both come back typed.
            for name, args in (("ingest", ([],)), ("compact", ()), ("nope", ())):
                with pytest.raises(RuntimeError, match="unknown engine query"):
                    sup.query(name, *args)
            with pytest.raises(RuntimeError, match="unknown ranking"):
                sup.top_k_triplets(3, by="bogus")
            assert sup.child_pid == pid and sup.restarts == 0
            assert sup.status()["live_comments"] > 0


class TestCrashRecovery:
    def test_sigkill_child_restarts_and_result_is_exact(self, tmp_path):
        events = stream()
        with make_supervisor(tmp_path) as sup:
            first_pid = sup.child_pid
            for i, event in enumerate(events):
                sup.submit(event)
                if i == 250:
                    sup.kill_child()  # no warning, no flush
            sup.flush()
            assert sup.restarts == 1
            assert sup.child_pid != first_pid
            assert diff_results(serial_snapshot(events), sup.results()) == []
            assert sup.status()["acked_events"] == len(events)

    def test_multiple_kills_still_exact(self, tmp_path):
        events = stream(900)
        with make_supervisor(tmp_path) as sup:
            for i, event in enumerate(events):
                sup.submit(event)
                if i in (200, 500, 800):
                    # The previous kill's restart may still be running in
                    # the background; each kill must hit a live child.
                    assert sup.await_restart()
                    sup.kill_child()
            sup.flush()
            assert sup.restarts == 3
            assert diff_results(serial_snapshot(events), sup.results()) == []

    def test_restart_preserves_durable_state_across_supervisors(self, tmp_path):
        events = stream()
        with make_supervisor(tmp_path) as sup:
            sup.run_events(events[:300])
        with make_supervisor(tmp_path) as sup2:
            assert "snapshot" in sup2.last_recovery
            sup2.run_events(events[300:])
            assert diff_results(serial_snapshot(events), sup2.results()) == []

    def test_child_sigkill_mid_idle_detected_on_next_request(self, tmp_path):
        with make_supervisor(tmp_path) as sup:
            sup.run_events(stream(100))
            os.kill(sup.child_pid, signal.SIGKILL)
            time.sleep(0.05)
            # The probe notices the death, starts the background restart
            # and says so in this very answer.
            status = sup.status()
            assert status["up"] is False
            assert not status["degraded"]
            assert sup.await_restart()
            status = sup.status()
            assert status["up"] is True
            assert status["restarts"] == 1
            assert not status["degraded"]
