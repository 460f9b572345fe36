"""Cross-process ``/dev/shm`` leak audit.

No executor publishes shared-memory segments: the multiprocessing YGM
world the parallel executor runs on moves shards, context and results
over its queues.  What stays is the
audit the benchmark harness, CI and tests run after a batch or serving
run: :func:`leaked_shm_files` lists segment files any process (dead
workers included) left behind, and must be empty.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["leaked_shm_files"]

#: Where POSIX shared memory surfaces as files (Linux).  The audit is a
#: no-op on platforms without it.
_SHM_DIR = Path("/dev/shm")


def leaked_shm_files(prefixes: tuple[str, ...] = ("psm_",)) -> tuple[str, ...]:
    """Segment files still present under ``/dev/shm``.

    The default prefix is the stdlib's segment naming (``psm_``), which
    assumes no unrelated shared-memory user on the host.
    """
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return ()
    return tuple(
        sorted(
            p.name
            for p in _SHM_DIR.iterdir()
            if p.name.startswith(tuple(prefixes))
        )
    )
