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
2. **Pass 2** read one partition at a time, sort it by ``(page, time)``
   and run :data:`~repro.exec.plans.PROJECTION_PLAN`'s map
   (:func:`~repro.exec.plans.project_shard`) on it — partitions are
   page-disjoint, so each is one page-aligned shard;
3. **Merge** one :func:`~repro.exec.plans.project_reduce` over the
   partitions' triples builds ``C`` and ``P'``.

Pass 2 holds one partition's rows, the author interner and the distinct
``(page, a, b)`` triples of the partitions done so far as int64 columns,
which the merge then reduces.  Equality with the in-memory engine is
asserted in tests.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.exec.plans import project_reduce, project_shard
from repro.graph.io import _page_triples
from repro.projection.ci_graph import CommonInteractionGraph
from repro.projection.project import ProjectionResult, _edges_from_arrays
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
) -> tuple[Interner, list[Path], int]:
    """Pass 1: hash-partition comments by page into binary spill files;
    returns the author interner, the spill paths and the row count."""
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
    return user_names, paths, n_rows


def _load_partition(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read one spill file back as (users, pages, times) arrays sorted by
    (page, time) — one page-aligned shard, since partitions own whole pages."""
    rows = np.fromfile(path, dtype=np.int64).reshape(-1, 3)
    rows = rows[np.lexsort((rows[:, 2], rows[:, 1]))]
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
        Page-hash partition count; pass 2 holds ~ corpus rows / partitions
        at a time.
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
        user_names, paths, n_rows = _spill_records(
            comments, spill_dir, n_partitions
        )

    context = {
        "delta1": window.delta1,
        "delta2": window.delta2,
        "pair_batch": int(pair_batch),
        "n_users": len(user_names),
    }
    partials = []
    pages_visited = 0
    try:
        for path in paths:
            with timings.stage("pass2.project"):
                shard = _load_partition(path)
                pages_visited += int(np.unique(shard[1]).shape[0])
                partials.append(project_shard(shard, context))
                del shard  # before the next partition is read
    finally:
        if not keep_spill:
            for path in paths:
                path.unlink(missing_ok=True)

    with timings.stage("merge"):
        red = project_reduce(partials, context)
        ci = CommonInteractionGraph(
            edges=_edges_from_arrays(red["ua"], red["ub"], red["w"]),
            page_counts=red["page_counts"],
            window=window,
            user_names=user_names,
        )

    return ProjectionResult(
        ci=ci,
        stats={
            "comments_scanned": n_rows,
            "pages_visited": pages_visited,
            "pair_observations": red["pair_observations"],
            "ci_edges": ci.edges.n_edges,
            "partitions": n_partitions,
        },
        timings=timings,
    )


def iter_ndjson_comments(path: str | Path) -> Iterator[tuple[str, str, int]]:
    """``(author, link_id, created_utc)`` per ndjson record, checked as in ``btm_from_ndjson``."""
    return _page_triples(path)
