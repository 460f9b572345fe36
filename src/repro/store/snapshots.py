"""Versioned, checksummed snapshot generations (manifest + npz payload).

A :class:`SnapshotStore` holds N generations of some subsystem's full
state, each one a directory::

    snap-<seq, 16 digits>/
        manifest.json   # format, seq, payload checksum, caller metadata
        state.npz       # the arrays

Writes are atomic at the generation level: the payload and manifest land
under a temporary directory name, are fsynced, and the directory is
renamed into place in one step — a crash mid-snapshot leaves a ``*.tmp``
orphan (swept on the next save), never a half-valid generation.  Reads
validate the manifest and the payload's SHA-256 before returning;
anything off raises :class:`~repro.store.errors.CorruptSnapshotError`,
and :meth:`load_newest_valid` turns that into generation fallback — the
newest clean snapshot wins, corrupt ones are reported, not fatal.

Two subsystems persist through it: the online serve tier's
:class:`~repro.store.store.DurableStore` (one generation per snapshot,
newest-valid fallback, retention pruning) and the batch pipeline's
:class:`~repro.pipeline.checkpoint.PipelineCheckpoint` (generation *k*
holds stage *k*; :meth:`SnapshotStore.truncate` drops the stages a
fresh or resumed run will rewrite).
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from repro.store.errors import CorruptSnapshotError
from repro.util.io import atomic_write_bytes, fsync_dir, fsync_path

__all__ = ["SnapshotStore"]

_FORMAT = 1
_MANIFEST = "manifest.json"
_PAYLOAD = "state.npz"


def _generation_name(seq: int) -> str:
    return f"snap-{seq:016d}"


class SnapshotStore:
    """One directory of snapshot generations (see module docstring).

    Parameters
    ----------
    directory:
        Root of the store (created if missing).
    keep:
        Generations retained after each :meth:`save` (>= 1).  Older ones
        are pruned — but never the generation a fallback would need
        next: pruning keeps the *newest* ``keep``.

    Examples
    --------
    >>> import tempfile, numpy as np
    >>> store = SnapshotStore(tempfile.mkdtemp(), keep=2)
    >>> store.save(3, {"xs": np.arange(4)}, {"note": "first"})
    >>> store.save(9, {"xs": np.arange(9)}, {"note": "second"})
    >>> store.generations()
    [9, 3]
    >>> seq, arrays, meta, skipped = store.load_newest_valid()
    >>> seq, int(arrays["xs"].sum()), meta["note"], skipped
    (9, 36, 'second', [])
    """

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)

    # -- writes ------------------------------------------------------------
    def save(self, seq: int, arrays: dict, meta: dict) -> Path:
        """Persist one generation atomically; prunes past ``keep``.

        *arrays* is any mapping acceptable to ``np.savez`` (object arrays
        allowed — names are arbitrary keys); *meta* must be
        JSON-serializable and is returned verbatim on load.
        """
        final = self.directory / _generation_name(seq)
        tmp = self.directory / (_generation_name(seq) + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        payload = buf.getvalue()
        (tmp / _PAYLOAD).write_bytes(payload)
        fsync_path(tmp / _PAYLOAD)
        manifest = {
            "format": _FORMAT,
            "seq": int(seq),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "meta": meta,
        }
        atomic_write_bytes(
            tmp / _MANIFEST,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
            durable=True,
        )
        if final.exists():  # re-snapshot at the same seq: replace whole
            shutil.rmtree(final)
        tmp.rename(final)
        fsync_dir(self.directory)
        self._prune()
        self._sweep_tmp()
        return final

    def _prune(self) -> None:
        for seq in self.generations()[self.keep:]:
            shutil.rmtree(
                self.directory / _generation_name(seq), ignore_errors=True
            )

    def _sweep_tmp(self) -> None:
        for orphan in self.directory.glob("snap-*.tmp"):
            shutil.rmtree(orphan, ignore_errors=True)

    def truncate(self, after: int = -1) -> None:
        """Delete every generation whose seq is above *after* (default: all)."""
        for seq in self.generations():
            if seq > after:
                shutil.rmtree(
                    self.directory / _generation_name(seq), ignore_errors=True
                )

    # -- reads -------------------------------------------------------------
    def generations(self) -> list[int]:
        """Present generation seqs, newest first (no validation)."""
        seqs = []
        for path in self.directory.glob("snap-*"):
            if path.suffix == ".tmp" or not path.is_dir():
                continue
            try:
                seqs.append(int(path.name.split("-", 1)[1]))
            except ValueError:
                continue
        return sorted(seqs, reverse=True)

    def load(self, seq: int) -> tuple[dict, dict]:
        """Load and validate one generation → ``(arrays, meta)``.

        Raises :class:`CorruptSnapshotError` naming the failure mode on
        any damage (missing files, unparseable manifest, wrong seq,
        checksum mismatch, unreadable payload).
        """
        gen = self.directory / _generation_name(seq)

        def corrupt(detail: str) -> CorruptSnapshotError:
            return CorruptSnapshotError(f"snapshot {gen.name}: {detail}")

        try:
            manifest = json.loads((gen / _MANIFEST).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise corrupt("manifest missing") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise corrupt(f"manifest unparseable ({exc})") from exc
        if manifest.get("format") != _FORMAT:
            raise corrupt(f"unknown format {manifest.get('format')!r}")
        if manifest.get("seq") != seq:
            raise corrupt(f"manifest seq {manifest.get('seq')!r} != {seq}")
        try:
            payload = (gen / _PAYLOAD).read_bytes()
        except FileNotFoundError:
            raise corrupt("payload missing") from None
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest.get("payload_sha256"):
            raise corrupt("payload checksum mismatch")
        try:
            with np.load(io.BytesIO(payload), allow_pickle=True) as data:
                arrays = {name: data[name] for name in data.files}
        except Exception as exc:  # checksum passed but npz still broken
            raise corrupt(f"payload unreadable ({exc})") from exc
        return arrays, manifest.get("meta", {})

    def load_newest_valid(
        self,
    ) -> tuple[int, dict, dict, list[tuple[int, str]]] | None:
        """The newest generation that validates, falling back on corruption.

        Returns ``(seq, arrays, meta, skipped)`` where *skipped* lists
        ``(seq, reason)`` for every newer generation that failed
        validation, or ``None`` when no generation is loadable at all.
        """
        skipped: list[tuple[int, str]] = []
        for seq in self.generations():
            try:
                arrays, meta = self.load(seq)
            except CorruptSnapshotError as exc:
                skipped.append((seq, str(exc)))
                continue
            return seq, arrays, meta, skipped
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gens = self.generations()
        return (
            f"SnapshotStore({str(self.directory)!r}, "
            f"generations={gens[:3]}{'…' if len(gens) > 3 else ''})"
        )
