"""Durable state for long-running detection: snapshots + recovery.

This package is the repo's one on-disk state format.  The batch tier's
stage checkpoints (:mod:`repro.pipeline.checkpoint`) are snapshot
generations, one per stage; the serve tier needs more — a process that
can die at any instant and come back **bit-identical**:

- :mod:`repro.store.snapshots` — :class:`SnapshotStore`, N atomic
  checksummed generations of ``manifest.json`` + ``state.npz`` (the
  format both tiers write);
- :mod:`repro.store.engine_state` — the
  :class:`~repro.serve.engine.DetectionEngine` ⇄ arrays codec (interners
  in id order, live comments in page order, filter bookkeeping);
- :mod:`repro.store.store` — :class:`DurableStore`, one directory
  combining the snapshot generations with the write-ahead journal of
  :mod:`repro.serve.wal`, plus the exact-replay recovery routine
  (newest valid snapshot, generation fallback on corruption, journal
  suffix replay, torn-tail tolerance);
- :mod:`repro.store.errors` — the corruption taxonomy
  (:class:`TornWalError`, :class:`CorruptSnapshotError`,
  :class:`StoreMismatchError`, :class:`StoreLayoutError`).

``repro-botnets serve --durable DIR`` and the recovery chaos matrix
(``repro.verify.chaos.run_recovery_chaos``) are the two drivers.
"""

from repro.store.errors import (
    CorruptSnapshotError,
    StoreError,
    StoreLayoutError,
    StoreMismatchError,
    TornWalError,
)
from repro.store.engine_state import (
    config_fingerprint,
    engine_state_arrays,
    restore_engine_state,
)
from repro.store.snapshots import SnapshotStore
from repro.store.store import DurableStore, RecoveryReport, check_layout, shard_root

__all__ = [
    "CorruptSnapshotError",
    "DurableStore",
    "RecoveryReport",
    "SnapshotStore",
    "StoreError",
    "StoreLayoutError",
    "StoreMismatchError",
    "TornWalError",
    "check_layout",
    "config_fingerprint",
    "engine_state_arrays",
    "restore_engine_state",
    "shard_root",
]
