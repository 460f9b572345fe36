"""Typed corruption errors for the durability layer.

Every way the on-disk state can be damaged maps to exactly one of these,
so recovery code (and the chaos matrix asserting on it) can distinguish
"tolerate and continue" from "fall back a generation" from "refuse":

- :class:`TornWalError` — the write-ahead log is damaged somewhere other
  than its tail.  A torn *final* record is the expected signature of a
  crash mid-append and is silently dropped by the reader; damage in the
  middle of the sequence (a checksum mismatch with valid records after
  it, a sequence-number gap, a missing segment) means events were lost
  and replay refuses to silently skip them.
- :class:`CorruptSnapshotError` — one snapshot generation failed
  validation (missing/unparseable manifest, checksum mismatch, missing
  or unreadable payload).  Recovery treats this per-generation: the
  newest valid snapshot wins, corrupt ones are reported and skipped.
- :class:`StoreMismatchError` — the data is intact but was written under
  a different configuration (or state format); restoring it would
  silently blend two runs, so it is refused instead.
- :class:`StoreLayoutError` — the directory holds the other deployment's
  layout (single engine vs page-hash tier), so it is refused.
- :class:`StoreError` — base class, and the catch-all for structural
  problems with the store directory itself.
"""

from __future__ import annotations

__all__ = [
    "CorruptSnapshotError",
    "StoreError",
    "StoreLayoutError",
    "StoreMismatchError",
    "TornWalError",
]


class StoreError(RuntimeError):
    """Base class for durability-layer failures."""


class TornWalError(StoreError):
    """The write-ahead log is damaged beyond its tolerated torn tail."""


class CorruptSnapshotError(StoreError):
    """A snapshot generation failed checksum/manifest validation."""


class StoreMismatchError(StoreError):
    """A restore was attempted against state from a different config."""


class StoreLayoutError(StoreError):
    """A store root holds the other deployment's directory layout."""
