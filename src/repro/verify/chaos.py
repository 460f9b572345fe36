"""Chaos parity: inject a fault into a run on the YGM executor, demand
typed failure, then demand exact recovery.

The contract under test is the whole fault-tolerance story end to end:

1. a pipeline run on a fault-injected YGM world must either **complete**
   (the fault never fired, or was a benign delay) or **fail typed** — one
   of the :mod:`repro.ygm.errors` classes, never a hang and never a bare
   exception;
2. re-invoking the same run with ``resume_from=`` on a *clean* world must
   then produce results **element-for-element identical** to an
   uninterrupted serial-oracle run — checkpointed stages must not leak any
   trace of the failed attempt.

``run_chaos`` executes that script for one seeded
:class:`~repro.ygm.faults.FaultPlan` and reports what happened; the
``repro-botnets verify --chaos --seed N`` CLI mode and the failure-matrix
tests drive it.
"""

from __future__ import annotations

import tempfile
from typing import Sequence

import numpy as np

from repro.exec.executors import YgmExecutor
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import CoordinationPipeline
from repro.pipeline.results import PipelineResult
from repro.projection.window import TimeWindow
from repro.verify.report import DIFF_LIMIT, Report
from repro.ygm.errors import (
    BarrierTimeoutError,
    HandlerError,
    WorkerDiedError,
    YgmError,
)
from repro.ygm.faults import FaultPlan
from repro.ygm.world import YgmWorld

__all__ = [
    "run_chaos",
    "run_recovery_chaos",
    "diff_results",
]


def diff_results(ref: PipelineResult, got: PipelineResult) -> list[str]:
    """Element-for-element diff of two pipeline results (empty = equal)."""
    msgs: list[str] = []
    if ref.ci.edges.to_dict() != got.ci.edges.to_dict():
        msgs.append("CI edge lists differ")
    if not np.array_equal(ref.ci.page_counts, got.ci.page_counts):
        msgs.append("P' ledgers differ")
    if ref.triangles.n_triangles != got.triangles.n_triangles:
        msgs.append(
            f"triangle counts differ: {got.triangles.n_triangles} != "
            f"{ref.triangles.n_triangles}"
        )
    else:
        for fld in ("a", "b", "c", "w_ab", "w_ac", "w_bc"):
            rv, gv = getattr(ref.triangles, fld), getattr(got.triangles, fld)
            if not np.array_equal(rv, gv):
                msgs.append(f"triangle field {fld} differs")
        if not np.array_equal(ref.t_scores, got.t_scores):
            msgs.append("T scores differ")
    if [c.members for c in ref.components] != [c.members for c in got.components]:
        msgs.append("component memberships differ")
    if (ref.triplet_metrics is None) != (got.triplet_metrics is None):
        msgs.append("hypergraph metrics present in only one result")
    elif ref.triplet_metrics is not None:
        if not np.array_equal(
            ref.triplet_metrics.w_xyz, got.triplet_metrics.w_xyz
        ) or not np.array_equal(
            ref.triplet_metrics.c_scores, got.triplet_metrics.c_scores
        ):
            msgs.append("hypergraph metrics differ")
    return msgs[:DIFF_LIMIT]


#: The fields of each typed failure that the run's inputs fix.  Message
#: counts (``in_flight``, ``waiting_on``) depend on how far the workers got
#: before the failure was seen, so they stay on the exception only.
_STABLE_FIELDS = (
    (WorkerDiedError, ("rank", "exitcode", "phase")),
    (BarrierTimeoutError, ("phase", "deadline")),
    (HandlerError, ("rank", "detail")),
)


def _typed_verdict(exc: YgmError) -> str:
    """``Type: field value, …`` over *exc*'s input-determined fields."""
    for cls, fields in _STABLE_FIELDS:
        if isinstance(exc, cls):
            stable = ", ".join(f"{f} {getattr(exc, f)}" for f in fields)
            return f"{type(exc).__name__}: {stable}"
    return f"{type(exc).__name__}: {exc}"


def run_chaos(
    comments: Sequence[tuple],
    window: TimeWindow,
    *,
    seed: int = 0,
    min_triangle_weight: int = 5,
    n_ranks: int = 2,
    backend: str = "mp",
    barrier_deadline: float = 30.0,
    checkpoint_dir: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> Report:
    """One seeded chaos scenario over *comments* (see module docstring).

    Parameters
    ----------
    comments:
        ``(author, page, created_utc)`` triples.
    seed:
        Drives :meth:`FaultPlan.seeded` (ignored when *fault_plan* is
        given explicitly).
    backend:
        ``"mp"`` injects into real worker processes; ``"serial"`` uses the
        deterministic simulated faults (fast enough for CI loops).
    barrier_deadline:
        Liveness deadline armed on the faulted world, so even a hang fault
        resolves typed instead of stalling the harness.
    checkpoint_dir:
        Where stage artifacts land (a temp dir by default).
    """
    plan = (
        fault_plan
        if fault_plan is not None
        else FaultPlan.seeded(seed, n_ranks)
    )
    btm = BipartiteTemporalMultigraph.from_comments(list(comments))
    cfg = PipelineConfig(
        window=window, min_triangle_weight=min_triangle_weight
    )
    pipe = CoordinationPipeline(cfg)
    oracle = pipe.run(btm)

    cp_dir = checkpoint_dir or tempfile.mkdtemp(prefix="repro-chaos-")

    faulted = YgmWorld(
        n_ranks,
        backend=backend,
        fault_plan=plan,
        barrier_deadline=barrier_deadline,
        exec_deadline=barrier_deadline,
    )
    # "completed" (the fault never bit), "failed-typed" (a YgmError
    # subclass) or "failed-untyped" (contract violation).
    first_attempt, error = "completed", None
    divergences: list[str] = []
    got: PipelineResult | None = None
    try:
        got = pipe.run(
            btm, executor=YgmExecutor(faulted), checkpoint_dir=cp_dir
        )
    except YgmError as exc:
        first_attempt, error = "failed-typed", _typed_verdict(exc)
    except Exception as exc:
        first_attempt, error = "failed-untyped", f"{type(exc).__name__}: {exc}"
        divergences.append(f"first attempt escaped untyped — {error}")
    finally:
        faulted.shutdown()

    header = [
        f"chaos run: seed {seed}, plan [{plan.describe()}], "
        f"{n_ranks} ranks ({backend} backend)",
        f"  first attempt: {first_attempt}" + (f" — {error}" if error else ""),
    ]
    resumed = first_attempt == "failed-typed"
    if resumed:
        # Recovery: clean world, resume from whatever stages completed.
        with YgmWorld(
            n_ranks, backend=backend, barrier_deadline=barrier_deadline
        ) as clean:
            got = pipe.run(
                btm, executor=YgmExecutor(clean), resume_from=cp_dir
            )
        header.append("  resumed from checkpoint on a clean world")
    if got is not None:
        divergences += diff_results(oracle, got)
    return Report(
        "CHAOS PARITY",
        "recovery matches the serial oracle exactly",
        header,
        {"first_attempt": first_attempt, "error": error, "resumed": resumed},
        {"recovery": divergences},
    )


# ---------------------------------------------------------------------------
# Recovery chaos: SIGKILL the durable serve tier, damage its files, demand
# bit-identical recovery (the WAL + snapshot contract of repro.store).
# ---------------------------------------------------------------------------

_CORRUPTIONS = ("none", "torn-tail", "corrupt-snapshot")


def _drive_service(service, events, *, kill_at=None) -> None:
    """The one deterministic drive loop every recovery-chaos party runs.

    Feeding, backpressure ticking, and batch-threshold ticking must be
    byte-for-byte the same schedule in the killed child and in the
    serial oracle — the bit-identity assertion depends on it.  The loop
    never drains the tail: a killed process would not have either.
    """
    import os as _os
    import signal as _signal

    for i, event in enumerate(events):
        if kill_at is not None and i == kill_at:
            _os.kill(_os.getpid(), _signal.SIGKILL)
        while not service.submit(event):
            service.tick()
        if service.queue.depth >= service.batch_size:
            service.tick()


class _OracleStop(Exception):
    pass


def _oracle_snapshot(events, config, service_kwargs, n_records):
    """Serial in-memory state after exactly *n_records* journal-equivalent
    ticks of the shared drive loop (the recovery ground truth)."""
    from repro.serve.service import DetectionService

    class _Counting(DetectionService):
        _records = 0

        def _pre_apply(self, batch, cutoff):
            if not batch and cutoff is None:
                return
            if self._records >= n_records:
                raise _OracleStop()
            self._records += 1

    svc = _Counting(config, **service_kwargs)
    try:
        _drive_service(svc, events)
        svc.drain_all()
    except _OracleStop:
        pass
    return svc.engine.snapshot()


def _inject_corruption(directory, corruption: str) -> None:
    """Damage the durable files the way a real fault would (*corruption*
    is one of ``_CORRUPTIONS``, checked by the caller)."""
    from pathlib import Path

    root = Path(directory)
    if corruption == "torn-tail":
        segments = sorted((root / "wal").glob("wal-*.log"))
        if segments:
            with open(segments[-1], "ab") as fh:
                # A plausible header promising more payload than exists.
                fh.write(b"\x80\x00\x00\x00\xde\xad\xbe\xefhalf-a-record")
    elif corruption == "corrupt-snapshot":
        snaps = sorted((root / "snapshots").glob("snap-*/state.npz"))
        if snaps:
            data = bytearray(snaps[-1].read_bytes())
            data[len(data) // 2] ^= 0xFF
            snaps[-1].write_bytes(bytes(data))


def run_recovery_chaos(
    events: Sequence[tuple],
    config: PipelineConfig,
    *,
    kill_at: int,
    corruption: str = "none",
    fsync: str = "interval",
    snapshot_every: int = 8,
    batch_size: int = 32,
    window_horizon: int = 86_400,
    allowed_lateness: int = 0,
    directory: str | None = None,
    resume_tail: bool = True,
) -> Report:
    """Kill a durable serve process mid-stream, damage its files, recover.

    The scenario, end to end:

    1. fork a child that drives *events* through a
       :class:`~repro.serve.durable.DurableDetectionService` and
       SIGKILLs **itself** at event index *kill_at* — a real no-warning
       death, not an exception;
    2. optionally damage what it left behind (*corruption*:
       ``"torn-tail"`` appends a half-written record to the journal,
       ``"corrupt-snapshot"`` flips a byte inside the newest snapshot
       payload);
    3. recover in-process and compare the recovered engine
       **bit-for-bit** against a serial oracle stopped after the same
       number of journal records;
    4. with *resume_tail*, feed the recovered service the stream suffix
       its durable state does not cover and demand the final state match
       an uninterrupted serial run of the whole stream.

    Every step is deterministic, so a failure is reproducible from the
    report's parameters alone.
    """
    if corruption not in _CORRUPTIONS:
        raise ValueError(
            f"corruption must be one of {_CORRUPTIONS}, got {corruption!r}"
        )
    service_kwargs = dict(
        window_horizon=window_horizon,
        allowed_lateness=allowed_lateness,
        batch_size=batch_size,
    )
    root = directory or tempfile.mkdtemp(prefix="repro-recovery-chaos-")
    events = [tuple(e) for e in events]
    try:
        return _run_recovery_chaos(
            events,
            config,
            root,
            kill_at=kill_at,
            corruption=corruption,
            fsync=fsync,
            snapshot_every=snapshot_every,
            resume_tail=resume_tail,
            service_kwargs=service_kwargs,
        )
    finally:
        if directory is None:
            # The harness owns a directory it created; a caller-provided
            # one (e.g. a pytest tmp_path) is the caller's to keep.
            import shutil

            shutil.rmtree(root, ignore_errors=True)


def _run_recovery_chaos(
    events: list,
    config,
    root,
    *,
    kill_at,
    corruption: str,
    fsync: str,
    snapshot_every: int,
    resume_tail: bool,
    service_kwargs: dict,
) -> Report:
    import multiprocessing

    from repro.serve.durable import DurableDetectionService
    from repro.serve.service import DetectionService

    def _victim() -> None:
        svc = DurableDetectionService(
            config,
            directory=root,
            fsync=fsync,
            snapshot_every=snapshot_every,
            snapshot_on_close=False,
            **service_kwargs,
        )
        _drive_service(svc, events, kill_at=kill_at)
        svc.close()  # only reached when kill_at is past the stream end

    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_victim)
    proc.start()
    proc.join()

    _inject_corruption(root, corruption)

    recovered = DurableDetectionService(
        config,
        directory=root,
        fsync=fsync,
        snapshot_every=snapshot_every,
        **service_kwargs,
    )
    rec = recovered.recovery
    # Recovered state vs the serial oracle stopped at the same record.
    oracle = _oracle_snapshot(events, config, service_kwargs, rec.applied_seq)
    sections = {
        "kill": [],
        "recovery": [
            f"recovered state: {d}"
            for d in diff_results(oracle, recovered.engine.snapshot())
        ],
        "resume": [],
    }
    if proc.exitcode != -9:
        sections["kill"].append(
            f"child did not die to the planned SIGKILL (exit {proc.exitcode})"
        )

    if resume_tail:
        # After resuming the stream tail: final state vs a full serial run.
        _drive_service(recovered, events[rec.events_durable :])
        recovered.drain_all()
        full = DetectionService(config, **service_kwargs)
        _drive_service(full, events)
        full.drain_all()
        sections["resume"] = [
            f"state after resuming the tail: {d}"
            for d in diff_results(
                full.engine.snapshot(), recovered.engine.snapshot()
            )
        ]
    recovered.close()
    return Report(
        "RECOVERY PARITY",
        "recovered state matches the serial oracle exactly",
        header=[
            f"recovery chaos: kill at event {kill_at}, "
            f"corruption [{corruption}], fsync={fsync}",
            f"  child exit: {proc.exitcode}",
            f"  {rec.describe()}",
        ],
        facts={
            # -9 = died to the injected SIGKILL as planned.
            "child_exit": proc.exitcode,
            # Journal records / stream events the durable state covered.
            "applied_seq": rec.applied_seq,
            "events_durable": rec.events_durable,
            "records_replayed": rec.records_replayed,
            "snapshots_skipped": len(rec.snapshots_skipped),
            "torn_tail": rec.torn_tail,
        },
        sections=sections,
    )
