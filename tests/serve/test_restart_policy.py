"""The one restart policy, exercised where it is used.

``max_restarts`` per ``restart_window`` means the same thing for a
single :class:`ServeSupervisor` (``serve --supervise``) and for a shard
of a :class:`ShardedDetectionService` (``serve --shards``), because the
tier runs the supervisor's own loop.  Every test here runs against
both.
"""

import time

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import (
    DegradedError,
    ServeSupervisor,
    ShardUnavailableError,
    ShardedDetectionService,
    page_shard_of,
)

pytestmark = [pytest.mark.serve, pytest.mark.faults]

CONFIG = PipelineConfig(
    window=TimeWindow(0, 120),
    min_triangle_weight=1,
    min_component_size=2,
    author_filter=AuthorFilter.none(),
)
EVENTS = [("u%d" % (i % 18), "p%d" % (i % 6), i) for i in range(120)]
VICTIM = 1
VICTIM_PAGE = next(
    p for p in ("p%d" % i for i in range(6)) if page_shard_of(p, 2) == VICTIM
)


class _Single:
    """``serve --supervise``: one supervisor, restart loop inline."""

    def __init__(self, tmp_path, **policy):
        self.sup = ServeSupervisor(
            CONFIG,
            directory=tmp_path,
            forward_batch=64,
            heartbeat_timeout=20.0,
            queue_capacity=16,
            window_horizon=10_000,
            batch_size=32,
            **policy,
        )
        self.sup.run_events(EVENTS)

    @property
    def victim(self):
        return self.sup

    def notice(self):
        """Touch the dead child; the loop runs before this returns."""
        try:
            self.sup.results()
        except DegradedError:
            pass

    def settle(self):
        return not self.sup.down

    def close(self):
        self.sup.close()


class _Tier:
    """``serve --shards 2``: the same loop, on a background thread."""

    def __init__(self, tmp_path, **policy):
        self.tier = ShardedDetectionService(
            CONFIG,
            n_shards=2,
            directory=tmp_path,
            forward_batch=64,
            heartbeat_timeout=20.0,
            window_horizon=10_000,
            batch_size=32,
            **policy,
        )
        self.tier.run_events(EVENTS)
        self._writes = 0

    @property
    def victim(self):
        return self.tier._shards[VICTIM].sup

    def notice(self):
        """Write, then query: a current aggregate touches no shard pipe."""
        self._writes += 1
        self.tier.submit(("u0", "p0", 10_000 + self._writes))
        with pytest.raises(ShardUnavailableError) as excinfo:
            self.tier.top_k_triplets(5)
        assert excinfo.value.shard_id == VICTIM

    def settle(self):
        return self.tier.await_healthy(timeout=30.0)

    def close(self):
        self.tier.close()


@pytest.fixture(params=[_Single, _Tier], ids=["supervisor", "tier-shard"])
def deployment(request, tmp_path):
    made = []

    def make(**policy):
        policy.setdefault("backoff_base", 0.01)
        policy.setdefault("backoff_cap", 0.05)
        made.append(request.param(tmp_path, **policy))
        return made[-1]

    yield make
    for d in made:
        d.close()


def test_budget_is_per_window_not_lifetime(deployment):
    # max_restarts + 1 kills, each spaced wider than restart_window: the
    # budget never holds more than one restart, so it is never spent.
    d = deployment(max_restarts=2, restart_window=0.2)
    for _kill in range(3):
        d.victim.kill_child()
        d.notice()
        assert d.settle()
        time.sleep(0.3)
    assert d.victim.restarts == 3
    assert not d.victim.degraded


def test_budget_spent_inside_the_window_degrades_for_good(deployment):
    d = deployment(max_restarts=2, restart_window=120.0)
    for _kill in range(3):
        assert not d.victim.degraded
        d.victim.kill_child()
        d.notice()
        d.settle()
    assert d.victim.degraded
    assert d.victim.restarts == 2  # the budget, not the kill count
    assert d.settle() is False
    d.notice()  # still typed-unavailable, and no further restart
    assert d.victim.restarts == 2


def test_exhausted_supervisor_sheds_by_queue_policy(tmp_path):
    d = _Single(tmp_path, max_restarts=0, queue_policy="drop-oldest")
    try:
        d.sup.kill_child()
        d.notice()
        for event in EVENTS:
            d.sup.submit(event)
        status = d.sup.status()
        assert status["degraded"] and status["shed_events"] > 0
        assert d.sup.metrics.counter("supervisor.shed").value > 0
        with pytest.raises(DegradedError):
            d.sup.results()
    finally:
        d.close()


def test_exhausted_shard_is_failed_and_sheds_its_ingest(tmp_path):
    d = _Tier(tmp_path, max_restarts=0)
    try:
        d.victim.kill_child()
        d.notice()
        assert d.tier.await_healthy(timeout=10.0) is False
        entry = d.tier.status()["shards"][VICTIM]
        assert entry["failed"] is True and entry["up"] is False
        assert set(entry) == {"shard", "up", "failed", "restarting", "restarts"}
        # Ingest keeps flowing to the survivor; the failed shard sheds.
        assert d.tier.submit(("u0", VICTIM_PAGE, 10_000)) is True
        assert d.tier.metrics.counter("sharded.shed").value >= 1
    finally:
        d.close()


def test_background_restarts_under_concurrent_load_lose_nothing(tmp_path):
    # The restart loop runs on its own thread while a producer keeps
    # submitting and readers keep querying the same supervisor.  A lost
    # or duplicated retained event, a reader touching the pipe
    # mid-restart, or a claim answer applied across a restart would
    # break exactness or surface an untyped error.
    import os
    import signal
    import sys
    import threading

    from repro.serve import DetectionService

    events = [("u%d" % (i % 18), "p%d" % (i % 6), i) for i in range(3000)]
    oracle = DetectionService(CONFIG, window_horizon=10_000, batch_size=32)
    oracle.run_events(events)
    tier = ShardedDetectionService(
        CONFIG,
        n_shards=2,
        directory=tmp_path,
        forward_batch=32,
        heartbeat_timeout=20.0,
        window_horizon=10_000,
        batch_size=32,
        max_restarts=50,
        backoff_base=0.001,
        backoff_cap=0.01,
    )
    stop = threading.Event()
    untyped: list[BaseException] = []

    def reader():
        while not stop.is_set():
            try:
                tier.user_score("u1")
                tier.top_k_triplets(5)
            except ShardUnavailableError:
                pass
            except BaseException as exc:  # noqa: BLE001 - recorded, asserted on
                untyped.append(exc)
                return

    def killer():
        # Bare SIGKILL, not kill_child(): that hook also joins the
        # process object, which the restart thread is reaping.
        while not stop.is_set():
            pid = tier._shards[VICTIM].sup.child_pid
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            stop.wait(0.05)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    threads.append(threading.Thread(target=killer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for event in events:
            while not tier.submit(event):
                time.sleep(0.001)
        stop.set()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        tier.flush()
        assert tier.await_healthy(timeout=30.0)
        tier.flush()
        assert untyped == []
        assert tier._shards[VICTIM].sup.restarts >= 1
        assert tier.ci_edges() == oracle.engine.ci_edges()
        assert tier.page_counts() == oracle.engine.page_counts()
        assert tier.top_k_triplets(25) == oracle.top_k_triplets(25)
        assert tier.components() == oracle.components()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        tier.close()
