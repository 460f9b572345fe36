"""Out-of-core projection for corpora that exceed memory.

The paper processes months of 138 M comments by distributing over
compute nodes; the single-host analogue is external partitioning.
Algorithm 1's outer loop is *page-parallel*, so the corpus can be split
by page hash into spill partitions, each projected independently, and
the results reduced — the same decomposition
:func:`repro.projection.project.project` uses across the shards of an
executor, here across disk-backed partitions:

1. **Pass 1** stream the ndjson once, interning author names into one
   global id space and appending ``(user, page, time)`` rows to
   ``n_partitions`` spill files by page hash;
2. **Pass 2** feed one partition at a time into an
   :class:`~repro.projection.incremental.IncrementalProjector` sharing
   the pass-1 interners (:meth:`~IncrementalProjector.ingest_dense`),
   then :meth:`~IncrementalProjector.release_comments` the partition's
   raw rows — partitions are page-disjoint, so released pages never
   need recomputation and peak memory stays at one partition plus the
   projector's triple store.

The final CI graph is the projector's
(:meth:`~IncrementalProjector.ci_graph` reduces the triple store through
the same :mod:`repro.kernels` reductions every other engine uses);
equality with the in-memory engine is asserted in tests.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.graph.io import _page_triples
from repro.projection.incremental import IncrementalProjector
from repro.projection.project import ProjectionResult
from repro.projection.window import TimeWindow
from repro.util.ids import Interner
from repro.util.timers import StageTimings
from repro.ygm.partition import HashPartitioner

__all__ = ["project_streaming"]

_ROW = struct.Struct("<qqq")  # (user_id, page_id, time)


def _spill_records(
    comments: Iterable[tuple[str, str, int]],
    spill_dir: Path,
    n_partitions: int,
) -> tuple[Interner, Interner, list[Path], int]:
    """Pass 1: hash-partition comments by page into binary spill files."""
    user_names = Interner()
    page_names = Interner()
    part = HashPartitioner(n_partitions)
    paths = [spill_dir / f"part_{i:03d}.bin" for i in range(n_partitions)]
    handles = [open(p, "wb") for p in paths]
    n_rows = 0
    try:
        for author, page, created in comments:
            uid = user_names.intern(author)
            pid = page_names.intern(page)
            handles[part.owner(pid)].write(_ROW.pack(uid, pid, int(created)))
            n_rows += 1
    finally:
        for fh in handles:
            fh.close()
    return user_names, page_names, paths, n_rows


def _load_partition(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read one spill file back as (users, pages, times) arrays."""
    raw = np.fromfile(path, dtype=np.int64)
    if raw.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    rows = raw.reshape(-1, 3)
    return rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2].copy()


def project_streaming(
    comments: Iterable[tuple[str, str, int]],
    window: TimeWindow,
    spill_dir: str | Path,
    n_partitions: int = 8,
    pair_batch: int = 4_000_000,
    keep_spill: bool = False,
) -> ProjectionResult:
    """Project a comment stream without holding it in memory.

    Parameters
    ----------
    comments:
        ``(author, page, created_utc)`` triples — e.g. a generator over a
        Pushshift ndjson file.
    window:
        The delay window ``(δ1, δ2)``.
    spill_dir:
        Scratch directory for partition files (created if missing).
    n_partitions:
        Page-hash partition count; peak memory ~ corpus size / partitions.
    keep_spill:
        Leave the spill files on disk for inspection.

    Examples
    --------
    >>> import tempfile
    >>> rows = [("a", "p", 0), ("b", "p", 30), ("a", "q", 5), ("b", "q", 10)]
    >>> with tempfile.TemporaryDirectory() as d:
    ...     result = project_streaming(rows, TimeWindow(0, 60), d, 2)
    >>> result.ci.edges.to_dict()
    {(0, 1): 2}
    """
    if n_partitions <= 0:
        raise ValueError(f"n_partitions must be positive, got {n_partitions}")
    spill_dir = Path(spill_dir)
    spill_dir.mkdir(parents=True, exist_ok=True)
    timings = StageTimings()

    with timings.stage("pass1.spill"):
        user_names, page_names, paths, n_rows = _spill_records(
            comments, spill_dir, n_partitions
        )

    proj = IncrementalProjector(
        window,
        pair_batch=pair_batch,
        user_names=user_names,
        page_names=page_names,
    )
    pages_visited = 0
    try:
        for path in paths:
            with timings.stage("pass2.project"):
                users, pages, times = _load_partition(path)
                if users.shape[0] == 0:
                    continue
                pages_visited += proj.ingest_dense(users, pages, times)
                # Partitions are page-disjoint: rows of a finished
                # partition are never needed again, only its triples.
                proj.release_comments(np.unique(pages).tolist())
    finally:
        if not keep_spill:
            for path in paths:
                path.unlink(missing_ok=True)

    with timings.stage("merge"):
        ci = proj.ci_graph()

    return ProjectionResult(
        ci=ci,
        stats={
            "comments_scanned": n_rows,
            "pages_visited": pages_visited,
            "pair_observations": proj.raw_pair_observations(),
            "ci_edges": ci.edges.n_edges,
            "partitions": n_partitions,
        },
        timings=timings,
    )


def iter_ndjson_comments(path: str | Path) -> Iterator[tuple[str, str, int]]:
    """``(author, link_id, created_utc)`` per ndjson record, checked as in ``btm_from_ndjson``."""
    return _page_triples(path)
