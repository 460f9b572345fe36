"""Crash-safe filesystem primitives shared by every durable writer.

Anything the repo persists with an integrity expectation — bench-result
``BENCH_*.json`` files feeding the CI regression gate, snapshot manifests
(stage checkpoints included), ``serve --status-json`` dumps — goes through these
helpers so a crash (or a SIGKILL from the chaos harness) can never leave
a half-written file under the final name.  The pattern is the standard
one: write the full content under a temporary sibling name, optionally
``fsync`` it, then move it into place with one atomic ``os.replace``.

``fsync_path`` / ``fsync_dir`` are exposed separately for callers that
manage their own file handles (the write-ahead log keeps one segment
open across appends) but still need the durability half of the story.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
    "fsync_path",
]


def atomic_write_bytes(
    path: str | Path, data: bytes, *, durable: bool = False
) -> None:
    """Write *data* to *path* atomically (tmp sibling + ``os.replace``).

    A reader never observes a truncated file: it sees either the old
    content or the new content in full.  With ``durable=True`` the tmp
    file is fsynced before the rename and the parent directory after it,
    so the replacement also survives power loss, not just process death.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        if durable:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if durable:
        fsync_dir(path.parent)


def atomic_write_text(
    path: str | Path, text: str, *, durable: bool = False
) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    atomic_write_bytes(path, text.encode("utf-8"), durable=durable)


def fsync_path(path: str | Path) -> None:
    """``fsync`` an existing file by path (open read-only, sync, close)."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | Path) -> None:
    """``fsync`` a directory so a rename/creation inside it is durable.

    Best-effort: some filesystems refuse to sync a directory fd; the
    rename itself is still atomic there, so the error is swallowed.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass
    finally:
        os.close(fd)
