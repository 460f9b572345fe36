"""Supervised serve loop: a durable child process under a watchdog parent.

:class:`ServeSupervisor` runs a :class:`~repro.serve.durable.DurableDetectionService`
in a child process and keeps detection available across crashes:

- **delivery** — the parent buffers producer events in its own bounded
  :class:`~repro.serve.ingest.EventQueue` and forwards them to the child
  in batches over a pipe.  Forwarded events are *retained* until the
  child acknowledges them as journaled; the durable stream position
  (``events_journaled``, carried in every WAL record and snapshot) tells
  a restarted child's parent exactly which retained events to resend —
  exactly-once delivery into the journal across process crashes.
- **watchdog** — every request carries a response deadline
  (``heartbeat_timeout``).  A missed deadline, ``BrokenPipeError`` or
  ``EOFError`` all mean the child is gone (killed, hung, OOMed) and
  trigger a restart.
- **restart with capped exponential backoff** — each consecutive failed
  start doubles the sleep (``backoff_base`` up to ``backoff_cap``).  A
  successful handshake resets the streak.
- **graceful degradation** — more than ``max_restarts`` restarts inside
  ``restart_window`` seconds flips the supervisor into *degraded* mode
  for good: no more restart attempts, producer events shed per the
  parent queue's policy, everything visible in :meth:`status` and
  :class:`~repro.serve.metrics.ServiceMetrics`.  Restarting the serving
  process is the only way out.

This is the only restart policy in :mod:`repro.serve`, with one seam:
the request that finds the child dead starts the loop on a background
thread (:meth:`ServeSupervisor._recover`) and fails at once with
:class:`DegradedError`.  While the loop runs the supervisor is
:attr:`~ServeSupervisor.restarting`: requests fail the same way,
producer events only buffer, and ``flush`` / ``close`` wait it out.

The child's orphan guard (it exits once the parent is gone, even after
a SIGKILL) and every teardown of it (join → terminate → kill) come from
:mod:`repro.util.procs`, shared with the parallel executor's pool and
the YGM multiprocessing backend.

The child never sheds: its queue uses the ``reject`` policy and the
drive loop ticks until admission, so the journal holds an exact prefix
of the delivered stream and the resume arithmetic stays trivial.

``directory=None`` runs a **volatile** child: a plain
:class:`~repro.serve.service.DetectionService` with no journal.  The
acked stream position is then the count of events the current
incarnation received, so a restart resets it to zero and the parent
resends its entire retained buffer — which is only the in-flight
suffix the sharded tier keeps small by flushing.  The sharded serving
tier (:mod:`repro.serve.shard`), which runs every supervisor in the
package, uses this mode when no ``--durable`` root is given.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn

from repro.pipeline.config import PipelineConfig
from repro.pipeline.results import PipelineResult
from repro.serve.durable import DurableDetectionService
from repro.serve.exchange import partial_bytes
from repro.serve.ingest import Event, EventQueue
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import DetectionService
from repro.util.procs import parent_gone, stop

__all__ = ["DegradedError", "ServeSupervisor"]

#: :class:`~repro.serve.engine.DetectionEngine` methods a parent may
#: invoke through the ``query`` op.  Anything else is answered with a
#: typed error — the pipe must not become ``getattr`` on the child.
ENGINE_QUERIES = frozenset(
    {
        "snapshot",
        "top_k_triplets",
        "user_score",
        "component_of",
        "components",
    }
)


class _ChildUnresponsive(Exception):
    """The child missed its response deadline (treated like a crash)."""


class DegradedError(RuntimeError):
    """The supervisor is in degraded mode and cannot serve the request."""


def _child_main(
    conn: Connection,
    config: PipelineConfig | None,
    durable: bool,
    service_kwargs: dict[str, Any],
    parent_pid: int,
) -> None:
    """Child process body: detection service + request loop on *conn*.

    *durable* selects the service: a
    :class:`~repro.serve.durable.DurableDetectionService` (journal +
    snapshots, position = ``events_journaled``) or a volatile
    :class:`~repro.serve.service.DetectionService` whose position is
    simply the events received by this incarnation.  Exceptions raised
    by an op are sent back as typed ``("error", ...)`` responses — a
    bad query (e.g. ranking by C without the hypergraph) must fail that
    request, not crash-loop the child through the watchdog.
    """
    # The parent owns lifecycle; a SIGINT meant for the parent's loop
    # must not also unwind the child mid-tick.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    svc: Any  # durable and volatile services differ in journal attributes
    if durable:
        svc = DurableDetectionService(config, **service_kwargs)
        recovery = svc.recovery.describe()
    else:
        svc = DetectionService(config, **service_kwargs)
        recovery = "volatile start (no durable store; a restart loses state)"
    received = 0

    def position() -> int:
        return svc.events_journaled if durable else received

    conn.send(
        (
            "hello",
            {
                "pid": os.getpid(),
                "events_durable": position(),
                "recovery": recovery,
            },
        )
    )
    try:
        while True:
            # A blocking recv() would never see EOF if sibling shards
            # (forked later) inherited our parent-side pipe fd, so a
            # SIGKILLed parent would orphan every child forever.  Poll
            # and watch the parent pid instead.
            while not conn.poll(1.0):
                if parent_gone(parent_pid):
                    return
            msg = conn.recv()
            op = msg[0]
            try:
                if op == "events":
                    for ev in msg[1]:
                        event = tuple(ev)
                        while not svc.submit(event):
                            svc.tick()
                        if svc.queue.depth >= svc.batch_size:
                            svc.tick()
                    received += len(msg[1])
                    conn.send(("ok", position()))
                elif op == "drain":
                    svc.drain_all()
                    conn.send(("ok", position()))
                elif op == "observe":
                    # Global watermark sync (page-partitioned ingest):
                    # fold the tier-wide max event time in, then tick so
                    # the advanced eviction cutoff is applied even when
                    # this shard has no pending events of its own.
                    svc.observe(msg[1])
                    svc.tick()
                    conn.send(("ok", position()))
                elif op == "status":
                    conn.send(("ok", svc.status()))
                elif op == "query":
                    _op, name, args = msg
                    if name not in ENGINE_QUERIES:
                        raise ValueError(f"unknown engine query {name!r}")
                    conn.send(("ok", getattr(svc.engine, name)(*args)))
                elif op == "claim":
                    # One round per exchange: drain, fold the tier-wide
                    # watermark in and tick (as "drain" then "observe"
                    # would), then answer the claim.
                    _op, shard_id, n_shards, watermark, epoch, since = msg
                    svc.drain_all()
                    if watermark is not None:
                        svc.observe(watermark)
                    svc.tick()
                    blob = partial_bytes(svc.engine, shard_id, n_shards, epoch, since)
                    conn.send(("ok", (position(), blob)))
                elif op == "close":
                    svc.drain_all()
                    if durable:
                        svc.close()
                    conn.send(("ok", position()))
                    return
                else:  # pragma: no cover - protocol bug guard
                    conn.send(("error", f"unknown op {op!r}"))
            except (EOFError, KeyboardInterrupt):
                raise
            except Exception as exc:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt):
        # Parent vanished: persist what we have and exit quietly.
        svc.drain_all()
        if durable:
            svc.close()


class ServeSupervisor:
    """Parent-side handle on a supervised durable detection child.

    Parameters
    ----------
    config:
        Pipeline configuration (forked into the child).
    directory:
        Durable store root — the single source of truth across restarts.
        ``None`` runs a **volatile** child (plain
        :class:`~repro.serve.service.DetectionService`): cheaper, but a
        restart loses the live window and replays only the retained
        in-flight suffix.  The sharded tier uses volatile shards unless
        given a durable root.
    queue_capacity / queue_policy:
        Parent-side producer buffer; its policy is what sheds load in
        degraded mode (``reject`` → backpressure, ``drop-oldest`` /
        ``drop-newest`` → silent shed with counters).
    forward_batch:
        Events per pipe message to the child.
    heartbeat_timeout:
        Seconds a request may wait for the child before the watchdog
        declares it dead.
    max_restarts / restart_window:
        Degradation threshold: more than *max_restarts* restarts within
        *restart_window* seconds stops the restart loop.
    backoff_base / backoff_cap:
        Capped exponential backoff between consecutive start attempts.
    **service_kwargs:
        Passed to the child's service — :class:`DurableDetectionService`
        kwargs (``fsync``, ``snapshot_every``, ``batch_size``, …) in
        durable mode, plain :class:`DetectionService` kwargs when
        volatile.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        directory: str | Path | None = None,
        queue_capacity: int = 65_536,
        queue_policy: str = "drop-oldest",
        forward_batch: int = 512,
        heartbeat_timeout: float = 30.0,
        max_restarts: int = 5,
        restart_window: float = 60.0,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        metrics: ServiceMetrics | None = None,
        **service_kwargs: Any,
    ) -> None:
        self.config = config
        self.directory = Path(directory) if directory is not None else None
        self.durable = self.directory is not None
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.queue = EventQueue(queue_capacity, queue_policy)
        self.forward_batch = int(forward_batch)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.max_restarts = int(max_restarts)
        self.restart_window = float(restart_window)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        service_kwargs.setdefault("queue_policy", "reject")
        if self.durable:
            service_kwargs["directory"] = self.directory
        self._service_kwargs = service_kwargs

        self._ctx = multiprocessing.get_context("fork")
        self._proc: BaseProcess | None = None
        self._conn: Connection | None = None
        self.child_pid: int | None = None
        self.degraded = False
        #: A restart loop is running on its background thread; the pipe
        #: and the retained deque are that loop's alone until it ends.
        self.restarting = False
        self.restarts = 0
        self.last_recovery: str | None = None
        self._recovery: threading.Thread | None = None
        #: Told ``False`` when a death starts a restart, ``True`` when one
        #: brings a child back (the sharded tier mirrors shard health).
        self._on_up: Callable[[bool], None] = lambda up: None
        #: Forwarded-but-not-yet-durable events: ``(stream_idx, event)``.
        self._retained: deque[tuple[int, Event]] = deque()
        self._stream_idx = 0  # events handed to the delivery layer so far
        self._acked = 0  # durable stream position last confirmed by a child
        # A volatile child counts from zero each incarnation; its acks
        # are offset by the global position it (re)started from.
        self._ack_base = 0
        self._restart_times: deque[float] = deque()
        self._start_child()

    # -- child lifecycle ---------------------------------------------------
    def _start_child(self) -> None:
        """Fork a child, wait for its recovery handshake, resend the gap."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_child_main,
            args=(child_conn, self.config, self.durable, self._service_kwargs,
                  os.getpid()),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(self.heartbeat_timeout):
            parent_conn.close()
            stop([proc], 0.0)
            raise _ChildUnresponsive("child did not complete its handshake")
        tag, hello = parent_conn.recv()
        assert tag == "hello", tag
        self._proc = proc
        self._conn = parent_conn
        self.child_pid = hello["pid"]
        self.last_recovery = hello["recovery"]
        if self.durable:
            covered = int(hello["events_durable"])
            self._acked = covered
        else:
            # A fresh volatile child covers nothing beyond what was
            # already acked; its incarnation-local acks count from here.
            self._ack_base = self._acked
            covered = self._acked
        # Re-deliver retained events the child's state does not cover.
        while self._retained and self._retained[0][0] <= covered:
            self._retained.popleft()
        resend = [event for _idx, event in self._retained]
        if resend:
            self.metrics.counter("supervisor.resent_events").inc(len(resend))
            parent_conn.send(("events", resend))
            if not parent_conn.poll(self.heartbeat_timeout):
                raise _ChildUnresponsive("child hung during resend")
            _tag, acked = parent_conn.recv()
            self._prune_retained(self._global_ack(int(acked)))

    def _global_ack(self, value: int) -> int:
        """A child ack as a global stream position (volatile offsetting)."""
        return value if self.durable else self._ack_base + value

    def _prune_retained(self, acked: int) -> None:
        if acked > self._acked:
            self._acked = acked
        while self._retained and self._retained[0][0] <= self._acked:
            self._retained.popleft()

    @property
    def down(self) -> bool:
        """No child to talk to: degraded for good, or mid-restart."""
        return self.degraded or self.restarting

    def _recover(self) -> NoReturn:
        """The child is dead: restart it in the background, fail this request.

        The one seam of the restart policy.  The pipe is claimed for the
        loop (:attr:`restarting`) *before* the noticing request fails, so
        no other caller touches the dead pipe in between; the backoff is
        slept on the loop's own thread.
        """
        self.restarting = True
        self._on_up(False)
        self._recovery = threading.Thread(target=self._restart_loop, daemon=True)
        self._recovery.start()
        raise DegradedError("child restarting")

    def await_restart(self, timeout: float = 30.0) -> bool:
        """Wait (bounded) for a running restart loop; ``True`` if a child is up."""
        thread = self._recovery
        if thread is not None:
            thread.join(timeout)
        return not self.down

    def _reap_child(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            stop([self._proc], 0.0)
            self._proc = None
        self.child_pid = None

    def _restart_loop(self) -> None:
        """Reap the dead child and restart it under backoff + budget.

        A spent budget leaves the supervisor degraded for good.
        """
        try:
            self._reap_child()
            failures = 0
            while True:
                now = time.monotonic()
                while (
                    self._restart_times
                    and now - self._restart_times[0] > self.restart_window
                ):
                    self._restart_times.popleft()
                if len(self._restart_times) >= self.max_restarts:
                    self.degraded = True
                    self.metrics.gauge("supervisor.degraded").set(1)
                    return
                time.sleep(
                    min(self.backoff_cap, self.backoff_base * (2**failures))
                )
                self._restart_times.append(time.monotonic())
                self.restarts += 1
                self.metrics.counter("supervisor.restarts").inc()
                try:
                    self._start_child()
                    break
                except (_ChildUnresponsive, EOFError, BrokenPipeError, OSError):
                    failures += 1
        finally:
            self.restarting = False
        self._on_up(True)

    def _request(self, op: str, *payload: Any) -> Any:
        """One request/response round under the watchdog.

        A dead child fails the request with :class:`DegradedError` and
        starts the background restart.  ``events`` payloads are already
        retained by the caller, so the restart's resend completes them.
        """
        if self.degraded:
            raise DegradedError("supervisor is degraded")
        if self.restarting:
            raise DegradedError("child is restarting")
        conn = self._conn
        if conn is None:
            raise DegradedError("supervisor is closed")
        try:
            conn.send((op, *payload))
            if not conn.poll(self.heartbeat_timeout):
                raise _ChildUnresponsive(f"child missed deadline on {op!r}")
            tag, value = conn.recv()
        except (_ChildUnresponsive, EOFError, BrokenPipeError, ConnectionResetError):
            pass  # the child is gone
        else:
            if tag == "ok":
                if op in ("events", "drain", "close"):
                    self._prune_retained(self._global_ack(int(value)))
                return value
            raise RuntimeError(f"child error on {op!r}: {value}")
        # Recover outside the handler: what _recover raises must not
        # chain the failed send's traceback, whose frame holds the
        # pickle buffer (freed out of order by the garbage collector).
        self._recover()

    # -- producer API ------------------------------------------------------
    def submit(self, event: Event) -> bool:
        """Buffer one event; forwards a batch when enough are queued.

        A healthy supervisor never sheds: a full parent queue forwards
        to the child first.  Only in degraded mode (or while a restart
        runs) does the queue fill and its policy decide what is lost —
        visible as ``shed_events`` in :meth:`status`.  While a restart
        loop runs events only buffer: the retained deque and the pipe
        are that loop's until it finishes.
        """
        if not self.down and self.queue.is_full:
            self._forward()
        dropped_before = self.queue.dropped
        admitted = self.queue.offer(event)
        if self.queue.dropped > dropped_before:
            self.metrics.counter("supervisor.shed").inc()
        if not self.down and self.queue.depth >= self.forward_batch:
            self._forward()
        return admitted

    def _forward(self) -> None:
        """Drain the parent queue into retained + child delivery."""
        while self.queue.depth:
            chunk = self.queue.drain(self.forward_batch)
            for event in chunk:
                self._stream_idx += 1
                self._retained.append((self._stream_idx, event))
            try:
                self._request("events", [list(e) for e in chunk])
            except DegradedError:
                return
        self.metrics.gauge("supervisor.retained").set(len(self._retained))

    def run_events(
        self, events: Iterable[Event], *, max_events: int | None = None
    ) -> int:
        """Feed an iterable through the supervised child; returns consumed."""
        consumed = 0
        try:
            for event in events:
                if max_events is not None and consumed >= max_events:
                    break
                consumed += 1
                self.submit(event)
        except KeyboardInterrupt:
            self.metrics.counter("service.interrupted").inc()
        self.flush()
        return consumed

    def flush(self) -> None:
        """Forward everything buffered and drain the child's queue.

        Waits out a running restart first; a no-op on a degraded
        supervisor.
        """
        if not self.await_restart():
            return
        try:
            self._forward()
            self._request("drain")
        except DegradedError:
            pass

    def observe(self, event_time: int) -> None:
        """Advance the child's watermark to a tier-wide event time.

        The child folds the timestamp in and ticks, so the broadcast
        eviction cutoff is applied immediately — see
        :meth:`DetectionService.observe` for why page-partitioned
        ingest needs this.
        """
        self._request("observe", int(event_time))

    # -- queries -----------------------------------------------------------
    def query(self, name: str, *args: Any) -> Any:
        """Run one allowlisted engine query (:data:`ENGINE_QUERIES`) on the child.

        The single query op of the pipe: ``name`` is a
        :class:`~repro.serve.engine.DetectionEngine` method, ``args`` its
        positional arguments.  An unknown name or a failing query comes
        back as a ``RuntimeError`` — it fails this request, never the
        child.
        """
        return self._request("query", name, args)

    def results(self) -> PipelineResult:
        """The child's current :class:`PipelineResult` snapshot."""
        return self.query("snapshot")

    def top_k_triplets(self, k: int = 10, by: str = "t") -> list[dict]:
        """:meth:`DetectionEngine.top_k_triplets` on the child."""
        return self.query("top_k_triplets", k, by)

    def user_score(self, author: str) -> dict:
        """:meth:`DetectionEngine.user_score` on the child."""
        return self.query("user_score", author)

    def component_of(self, author: str) -> list[str]:
        """:meth:`DetectionEngine.component_of` on the child."""
        return self.query("component_of", author)

    def claim(
        self,
        shard_id: int,
        n_shards: int,
        watermark: int | None,
        epoch: str | None,
        since: int | None,
    ) -> bytes:
        """Claim the child's ledger changes since ``(epoch, since)``.

        The page-hash exchange's shard round: events still buffered here
        are forwarded first; then one request drains the child, folds in
        the tier-wide *watermark* and returns the bytes of
        :func:`repro.serve.exchange.partial_bytes`, which the caller
        rebuilds with :func:`repro.serve.exchange.load_partial`.  One
        request per claim keeps the answer atomic with respect to the
        child's ingest.
        """
        self._forward()
        position, blob = self._request(
            "claim", shard_id, n_shards, watermark, epoch, since
        )
        self._prune_retained(self._global_ack(int(position)))
        return blob

    def status(self) -> dict:
        """Child status (when reachable) + supervision counters.

        ``up`` says whether this very probe reached the child: a probe
        that finds it dead starts the restart and reports ``False``.
        """
        try:
            child_status = self._request("status")
            up = True
        except DegradedError:
            child_status, up = {}, False
        child_status.update(
            supervised=True,
            up=up,
            child_pid=self.child_pid,
            degraded=self.degraded,
            restarts=self.restarts,
            shed_events=self.queue.dropped,
            pending_events=self.queue.depth,
            retained_events=len(self._retained),
            acked_events=self._acked,
            submitted_events=self.queue.offered,
            last_recovery=self.last_recovery,
        )
        return child_status

    # -- lifecycle ---------------------------------------------------------
    def kill_child(self) -> None:
        """SIGKILL the child without telling it (chaos / test hook)."""
        pid, proc = self.child_pid, self._proc
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # already dead — the watchdog just hasn't noticed
            if proc is not None:
                proc.join()

    def close(self) -> None:
        """Flush, persist, and shut the child down cleanly.

        Waits out a running restart first, and one that this call's own
        requests start, so a restarted child is shut down too (it
        persists on the pipe's EOF).
        """
        self.await_restart()
        if self._conn is None:
            return
        try:
            if not self.degraded:
                self._forward()
                self._request("close")
        except DegradedError:
            self.await_restart()
        finally:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            if self._proc is not None:
                stop([self._proc], self.heartbeat_timeout)
                self._proc = None
            self.child_pid = None

    def __enter__(self) -> "ServeSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
