"""One durable-state directory: WAL + snapshot generations together.

:class:`DurableStore` fixes the layout the serve tier persists into::

    <root>/
        wal/         # repro.serve.wal segments (the event journal)
        snapshots/   # repro.store.snapshots generations

(a page-hash tier keeps one per shard, at :func:`shard_root`;
:func:`check_layout` tells the two apart), and binds the convention
that ties them together: **a snapshot generation's number is its WAL
offset** — the sequence number of the first journal record *not*
reflected in that snapshot.  Recovery loads
the newest valid generation ``S`` and replays journal records
``seq >= S``; retention prunes journal segments below the *oldest*
retained generation, so every surviving snapshot keeps a complete replay
suffix (corruption fallback stays possible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.store.engine_state import restore_engine_state
from repro.store.errors import StoreLayoutError, TornWalError
from repro.store.snapshots import SnapshotStore

__all__ = ["DurableStore", "RecoveryReport", "check_layout", "shard_root"]


def shard_root(root: str | Path, shard_id: int) -> Path:
    """Shard *shard_id*'s store under a page-hash tier's *root*."""
    return Path(root) / f"shard-{shard_id:02d}"


def check_layout(root: str | Path, *, sharded: bool) -> None:
    """Refuse a root laid out for the other deployment (:class:`StoreLayoutError`).

    A single engine keeps ``wal/`` + ``snapshots/`` at *root*; a page-hash
    tier (*sharded*) keeps one such store per shard in ``shard-NN/``.
    Opening either as the other would start empty beside the old state.
    """
    root = Path(root)
    if sharded and ((root / "wal").is_dir() or (root / "snapshots").is_dir()):
        raise StoreLayoutError(
            f"{root} holds a single-engine store (wal/, snapshots/), but a "
            "page-hash tier, serve --supervise included, keeps shard 0's in "
            f"{shard_root(root, 0)}: serve {root} without --supervise or "
            "--shards to read it, or start the tier in an empty directory"
        )
    shards = [] if sharded else sorted(root.glob("shard-[0-9]*"))
    if shards:
        flag = "--supervise" if len(shards) == 1 else f"--shards {len(shards)}"
        raise StoreLayoutError(
            f"{root} holds a page-hash tier's per-shard stores "
            f"({', '.join(p.name for p in shards)}): serve it with {flag}"
        )


@dataclass
class RecoveryReport:
    """What one :meth:`DurableStore.recover_engine` call did."""

    #: Generation the engine was rebuilt from (``None`` = cold start).
    snapshot_seq: int | None = None
    #: Newer generations skipped as corrupt: ``(seq, reason)``.
    snapshots_skipped: list[tuple[int, str]] = field(default_factory=list)
    #: Journal records replayed on top of the snapshot.
    records_replayed: int = 0
    #: Events contained in those records.
    events_replayed: int = 0
    #: Whether the journal ended in a dropped torn record.
    torn_tail: bool = False
    #: Records applied in total (== seq of the next journal record).
    applied_seq: int = 0
    #: Highest watermark input seen in the replayed records (restores
    #: the service-level :class:`~repro.serve.ingest.WatermarkTracker`).
    max_event_time: int | None = None
    #: Cumulative events covered by the durable state (stream position a
    #: supervisor resumes delivery from; 0 when the records predate the
    #: counter or on cold start).
    events_durable: int = 0

    @property
    def cold_start(self) -> bool:
        """True when there was nothing on disk to recover from."""
        return self.snapshot_seq is None and self.applied_seq == 0

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.cold_start:
            return "recovery: cold start (no durable state found)"
        parts = [
            f"snapshot {self.snapshot_seq}"
            if self.snapshot_seq is not None
            else "no snapshot",
            f"{self.records_replayed} record(s) / "
            f"{self.events_replayed} event(s) replayed",
            f"resumed at seq {self.applied_seq}",
        ]
        if self.snapshots_skipped:
            parts.append(
                f"{len(self.snapshots_skipped)} corrupt generation(s) skipped"
            )
        if self.torn_tail:
            parts.append("torn WAL tail dropped")
        return "recovery: " + ", ".join(parts)


class DurableStore:
    """Paths + policy for one serve deployment's durable state."""

    def __init__(self, directory: str | Path, *, keep_snapshots: int = 3) -> None:
        self.directory = Path(directory)
        check_layout(self.directory, sharded=False)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_dir = self.directory / "wal"
        self.snapshots = SnapshotStore(
            self.directory / "snapshots", keep=keep_snapshots
        )

    def has_state(self) -> bool:
        """Whether anything durable exists to recover from."""
        return bool(self.snapshots.generations()) or bool(
            self.wal_dir.is_dir() and sorted(self.wal_dir.glob("wal-*.log"))
        )

    def open_wal(self, **kwargs):
        """Open the journal for appending (see :class:`WriteAheadLog`)."""
        from repro.serve.wal import WriteAheadLog

        return WriteAheadLog(self.wal_dir, **kwargs)

    def prune_wal(self) -> int:
        """Drop journal segments no retained snapshot needs; returns count."""
        from repro.serve.wal import WriteAheadLog

        generations = self.snapshots.generations()
        if not generations:
            return 0
        with WriteAheadLog(self.wal_dir, fsync="off") as wal:
            return wal.prune_before(min(generations))

    # -- recovery ----------------------------------------------------------
    def recover_engine(
        self, config, *, metrics=None
    ) -> tuple["object", RecoveryReport]:
        """Newest-valid snapshot + exact journal replay → a live engine.

        Implements the full recovery contract: corrupt newest generations
        fall back to older ones, a torn journal tail is dropped, and a
        journal that cannot cover the snapshot's suffix (a pruned or
        vanished segment) raises :class:`TornWalError` rather than
        silently losing applied events.  Returns the engine and a
        :class:`RecoveryReport`.
        """
        from repro.serve.engine import DetectionEngine
        from repro.serve.wal import read_wal, wal_end_state

        report = RecoveryReport()
        loaded = self.snapshots.load_newest_valid()
        if loaded is not None:
            seq, arrays, meta, skipped = loaded
            report.snapshot_seq = seq
            report.snapshots_skipped = skipped
            wm = meta.get("max_event_time")
            report.max_event_time = int(wm) if wm is not None else None
            report.events_durable = int(meta.get("events_journaled", 0))
            engine = restore_engine_state(arrays, meta, config, metrics=metrics)
            start_seq = seq
        else:
            engine = DetectionEngine(config, metrics=metrics)
            start_seq = 0

        if self.wal_dir.is_dir():
            end = wal_end_state(self.wal_dir)
            report.torn_tail = end.torn_tail
            expected = start_seq
            for seq, record in read_wal(self.wal_dir, start_seq=start_seq):
                if seq != expected:
                    raise TornWalError(
                        f"journal cannot cover snapshot suffix: needed seq "
                        f"{expected}, found {seq}"
                    )
                expected = seq + 1
                events = [tuple(e) for e in record.get("events", ())]
                if events:
                    engine.ingest(events)
                cutoff = record.get("cutoff")
                if cutoff is not None:
                    engine.advance(int(cutoff))
                wm = record.get("wm")
                if wm is not None and (
                    report.max_event_time is None
                    or int(wm) > report.max_event_time
                ):
                    report.max_event_time = int(wm)
                acc = record.get("acc")
                if acc is not None:
                    report.events_durable = int(acc)
                report.records_replayed += 1
                report.events_replayed += len(events)
            report.applied_seq = max(start_seq, expected)
        else:
            report.applied_seq = start_seq
        return engine, report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DurableStore({str(self.directory)!r})"
