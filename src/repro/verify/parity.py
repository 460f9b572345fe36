"""Differential parity harness: three plans × every executor vs the oracles.

The paper's results are reproducible only if every execution mode agrees
*exactly*.  Each step is one :mod:`repro.exec` plan, so the sweep is
generated, not listed: per step, the reference oracle, then the step's
plan on {serial, parallel, ygm} — ``project_reference`` vs
``PROJECTION_PLAN`` (plus the ``IncrementalProjector`` serving uses and
the ``project_bucketed`` / ``project_streaming`` adapters), brute force
vs ``SURVEY_PLAN`` (plus TriPoll's streaming ``survey_triangles``), and
``hyperedge_count_reference`` vs ``VALIDATION_PLAN`` (plus the kernel's
bitset and probe paths, each forced).  All are thin
orchestration over the same :mod:`repro.kernels` layer, so agreement is
by construction, and this harness makes the claim executable: it runs
one comment corpus through every engine, structurally diffs the outputs
against the oracle, and — on divergence — shrinks the corpus to a
minimal counterexample by delta-debugging the comment list.

The harness is engine-agnostic: the default registries can be overridden
with arbitrary callables, which is how the tests prove the harness *can*
catch a deliberately broken engine (and how a future engine gets wired
into the same oracle).
"""

from __future__ import annotations

import tempfile
from typing import Callable, Sequence

import numpy as np

from repro.exec.executors import ParallelExecutor, SerialExecutor, YgmExecutor
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.edgelist import EdgeList
from repro.hypergraph.incidence import UserPageIncidence
from repro.hypergraph.triplets import evaluate_triplets
from repro.kernels import hyperedge_count_reference, hyperedges
from repro.projection.buckets import project_bucketed
from repro.projection.incremental import IncrementalProjector
from repro.projection.project import (
    ProjectionResult,
    project,
    project_reference,
)
from repro.projection.streaming import project_streaming
from repro.projection.window import TimeWindow
from repro.tripoll.engine import survey_triangles_plan
from repro.tripoll.survey import TriangleSet, survey_triangles, triangles_brute
from repro.verify.report import Report, diff_mapping
from repro.ygm.world import YgmWorld

__all__ = [
    "run_parity",
    "default_projection_engines",
    "default_triangle_engines",
    "default_validation_engines",
    "shrink_comments",
]

Comment = tuple  # (author, page, created_utc)
ProjectionEngine = Callable[[BipartiteTemporalMultigraph, TimeWindow], ProjectionResult]
TriangleEngine = Callable[[EdgeList, int], TriangleSet]
ValidationEngine = Callable[[UserPageIncidence, TriangleSet], np.ndarray]


# ---------------------------------------------------------------------------
# Engine registries
# ---------------------------------------------------------------------------


def _dense_rows(btm: BipartiteTemporalMultigraph):
    """The corpus as ``(user_id, page_id, time)`` int triples, row order."""
    return zip(btm.users.tolist(), btm.pages.tolist(), btm.times.tolist())


def _into_btm_id_space(
    result: ProjectionResult, btm: BipartiteTemporalMultigraph
) -> ProjectionResult:
    """Translate a projection computed in a private id space back into
    *btm*'s id space.

    The streaming/incremental engines intern their input keys themselves;
    feeding them :func:`_dense_rows` makes each private interner's *key*
    the original btm id, so ``interner.key_of`` is the inverse map.  The
    remap is injective, hence edge multiplicities and ``P'`` entries
    carry over unchanged.
    """
    ci = result.ci
    uid_of = np.asarray(
        [int(ci.user_names.key_of(i)) for i in range(ci.page_counts.shape[0])],
        dtype=np.int64,
    )
    if uid_of.shape[0]:
        edges = EdgeList(
            uid_of[ci.edges.src], uid_of[ci.edges.dst], ci.edges.weight
        )
        page_counts = np.zeros(btm.user_id_space, dtype=np.int64)
        page_counts[uid_of] = ci.page_counts
    else:
        edges = ci.edges
        page_counts = np.zeros(btm.user_id_space, dtype=np.int64)
    remapped = type(ci)(
        edges=edges,
        page_counts=page_counts,
        window=ci.window,
        user_names=btm.user_names,
    )
    return ProjectionResult(
        ci=remapped, stats=result.stats, timings=result.timings
    )


def _on_every_executor(
    run: Callable, n_ranks: int, parallel_workers: int
) -> dict[str, Callable]:
    """*run* ``(executor, *args)`` as one engine per executor kind, each
    on a fresh executor whose world is torn down when the call returns."""

    def serial(*args):
        return run(SerialExecutor(), *args)

    def parallel(*args):
        with ParallelExecutor(parallel_workers) as ex:
            return run(ex, *args)

    def ygm(*args):
        with YgmWorld(n_ranks) as world:
            return run(YgmExecutor(world), *args)

    return {"plan[serial]": serial, "plan[parallel]": parallel, "plan[ygm]": ygm}


def default_projection_engines(
    bucket_width: int | None = None,
    n_ranks: int = 2,
    parallel_workers: int = 2,
) -> dict[str, ProjectionEngine]:
    """Step 1: the oracle first, then ``PROJECTION_PLAN`` on every
    executor, the incremental projector, and the two adapters."""

    def _bucketed(btm, window):
        bw = bucket_width
        if bw is None:
            bw = max(1, window.width // 3)
        return project_bucketed(btm, window, bucket_width=bw)

    def _streaming(btm, window):
        with tempfile.TemporaryDirectory() as spill:
            got = project_streaming(
                _dense_rows(btm), window, spill, n_partitions=4
            )
        return _into_btm_id_space(got, btm)

    def _incremental(btm, window):
        proj = IncrementalProjector(window)
        proj.add_comments(_dense_rows(btm))
        got = ProjectionResult(
            ci=proj.ci_graph(),
            stats={"pair_observations": proj.raw_pair_observations()},
        )
        return _into_btm_id_space(got, btm)

    return {
        "reference": project_reference,
        **_on_every_executor(
            lambda ex, btm, window: project(btm, window, executor=ex),
            n_ranks,
            parallel_workers,
        ),
        "incremental": _incremental,
        "bucketed": _bucketed,
        "streaming": _streaming,
    }


def default_triangle_engines(
    n_ranks: int = 2, parallel_workers: int = 2
) -> dict[str, TriangleEngine]:
    """Step 2: the brute oracle first, then ``SURVEY_PLAN`` on every
    executor and TriPoll's streaming survey."""

    def _brute(edges, min_w):
        acc = edges.accumulate()
        if min_w > 0:
            acc = acc.threshold(min_w)
        return triangles_brute(acc)

    def _streaming(edges, min_w):
        return survey_triangles(edges, min_edge_weight=min_w)

    return {
        "brute": _brute,
        **_on_every_executor(
            lambda ex, edges, min_w: survey_triangles_plan(
                edges, ex, min_edge_weight=min_w
            ),
            n_ranks,
            parallel_workers,
        ),
        "streaming": _streaming,
    }


def default_validation_engines(
    n_ranks: int = 2, parallel_workers: int = 2
) -> dict[str, ValidationEngine]:
    """Step 3: the reference count first, then both paths of
    :func:`~repro.kernels.hyperedge_count` by name (whichever one its
    dispatch would pick), then ``VALIDATION_PLAN`` on every executor.
    Engines return ``w_xyz`` aligned to the triangles."""

    def _kernel(count):
        return lambda inc, tri: count(inc.indptr, inc.page_ids, tri.a, tri.b, tri.c)

    return {
        "reference": _kernel(hyperedge_count_reference),
        "bitset": _kernel(hyperedges._bitset_path),
        "probe": _kernel(hyperedges._probe_path),
        **_on_every_executor(
            lambda ex, inc, triangles: evaluate_triplets(
                inc, triangles, executor=ex
            ).w_xyz,
            n_ranks,
            parallel_workers,
        ),
    }


# ---------------------------------------------------------------------------
# Structural diffs
# ---------------------------------------------------------------------------


def _diff_projection(
    name: str, ref: ProjectionResult, got: ProjectionResult
) -> list[str]:
    """Structural diff of *got* against the reference projection."""
    msgs = diff_mapping(
        f"projection[{name}]: edges",
        ref.ci.edges.to_dict(),
        got.ci.edges.to_dict(),
    )
    if not np.array_equal(ref.ci.page_counts, got.ci.page_counts):
        msgs += diff_mapping(
            f"projection[{name}]: P' ledger",
            dict(enumerate(ref.ci.page_counts.tolist())),
            dict(enumerate(got.ci.page_counts.tolist())),
        )
    return msgs


def _diff_triangles(name: str, ref: TriangleSet, got: TriangleSet) -> list[str]:
    """Element-for-element diff of canonically sorted triangle sets."""
    if ref.n_triangles != got.n_triangles:
        return [
            f"triangles[{name}]: {got.n_triangles} triangles != "
            f"{ref.n_triangles} (reference)"
        ]
    for fld in ("a", "b", "c", "w_ab", "w_ac", "w_bc"):
        rv, gv = getattr(ref, fld), getattr(got, fld)
        if not np.array_equal(rv, gv):
            i = int(np.flatnonzero(rv != gv)[0])
            return [
                f"triangles[{name}]: field {fld} differs at canonical "
                f"index {i}: {int(gv[i])} != {int(rv[i])}"
            ]
    return []


def _diff_validation(name: str, ref: np.ndarray, got: np.ndarray) -> list[str]:
    """Diff of hyperedge weights aligned to one canonical triangle set."""
    if np.array_equal(ref, got):
        return []
    if ref.shape != got.shape:
        return [f"validation[{name}]: {got.shape[0]} weights != {ref.shape[0]}"]
    i = int(np.flatnonzero(ref != got)[0])
    return [
        f"validation[{name}]: w_xyz differs at canonical index {i}: "
        f"{int(got[i])} != {int(ref[i])}"
    ]


def _diff_once(
    comments: Sequence[Comment],
    window: TimeWindow,
    min_edge_weight: int,
    projection_engines: dict[str, ProjectionEngine],
    triangle_engines: dict[str, TriangleEngine],
    validation_engines: dict[str, ValidationEngine],
) -> tuple[list[str], int, int]:
    """One full differential pass; returns (divergences, n_edges, n_triangles)."""
    btm = BipartiteTemporalMultigraph.from_comments(list(comments))
    names = list(projection_engines)
    ref_name = names[0]
    ref = projection_engines[ref_name](btm, window)
    msgs: list[str] = []
    for name in names[1:]:
        msgs += _diff_projection(
            name, ref, projection_engines[name](btm, window)
        )

    tri_names = list(triangle_engines)
    tri_ref = triangle_engines[tri_names[0]](
        ref.ci.edges, min_edge_weight
    ).sorted_canonical()
    for name in tri_names[1:]:
        got = triangle_engines[name](
            ref.ci.edges, min_edge_weight
        ).sorted_canonical()
        msgs += _diff_triangles(name, tri_ref, got)

    inc = UserPageIncidence.from_btm(btm)
    val_names = list(validation_engines)
    val_ref = validation_engines[val_names[0]](inc, tri_ref)
    for name in val_names[1:]:
        msgs += _diff_validation(
            name, val_ref, validation_engines[name](inc, tri_ref)
        )
    return msgs, ref.ci.edges.n_edges, tri_ref.n_triangles


# ---------------------------------------------------------------------------
# Counterexample shrinking
# ---------------------------------------------------------------------------


def shrink_comments(
    comments: Sequence[Comment],
    still_fails: Callable[[list[Comment]], bool],
) -> list[Comment]:
    """Delta-debug *comments* to a minimal list where *still_fails* holds.

    Classic ddmin-style bisection: repeatedly try deleting chunks (halving
    the chunk size on each sweep) and keep any deletion that preserves the
    failure; stops when no single comment can be removed.  The result is
    1-minimal, not globally minimal — enough to read off the hazard.
    """
    current = list(comments)
    if not still_fails(current):
        raise ValueError("initial comment list does not fail the predicate")
    chunk = max(1, len(current) // 2)
    while True:
        reduced = False
        i = 0
        while i < len(current):
            candidate = current[:i] + current[i + chunk :]
            if candidate and still_fails(candidate):
                current = candidate
                reduced = True
            else:
                i += chunk
        if chunk == 1:
            if not reduced:
                return current
        else:
            chunk = max(1, chunk // 2)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_parity(
    comments: Sequence[Comment],
    window: TimeWindow,
    min_edge_weight: int = 0,
    *,
    bucket_width: int | None = None,
    n_ranks: int = 2,
    parallel_workers: int = 2,
    projection_engines: dict[str, ProjectionEngine] | None = None,
    triangle_engines: dict[str, TriangleEngine] | None = None,
    validation_engines: dict[str, ValidationEngine] | None = None,
    shrink: bool = True,
) -> Report:
    """Run every engine on one corpus and diff the outputs exactly.

    Parameters
    ----------
    comments:
        ``(author, page, created_utc)`` triples (strings or dense ids).
    window:
        The projection window ``(δ1, δ2)``.
    min_edge_weight:
        Triangle-survey cutoff applied by every triangle engine.
    bucket_width:
        Bucket width for the bucketed engine (default: a third of the
        window so the merge is exercised over ≥ 3 buckets).
    n_ranks:
        Logical world size for the YGM executor (serial backend).
    parallel_workers:
        Worker-pool size for the parallel executor.
    projection_engines / triangle_engines / validation_engines:
        Override the registries; the **first** entry of each dict is
        treated as the oracle the rest are diffed against.  Validation
        engines are fed the oracle's canonically sorted triangles.
    shrink:
        On divergence, delta-debug the comment list down to a minimal
        counterexample (re-runs all engines per candidate — affordable
        because counterexample corpora are small by construction).

    Examples
    --------
    >>> report = run_parity(
    ...     [("a", "p", 0), ("b", "p", 30), ("c", "p", 45)],
    ...     TimeWindow(0, 60),
    ... )
    >>> report.ok
    True
    """
    proj = projection_engines or default_projection_engines(
        bucket_width=bucket_width,
        n_ranks=n_ranks,
        parallel_workers=parallel_workers,
    )
    tri = triangle_engines or default_triangle_engines(
        n_ranks=n_ranks, parallel_workers=parallel_workers
    )
    val = validation_engines or default_validation_engines(
        n_ranks=n_ranks, parallel_workers=parallel_workers
    )
    comments = list(comments)
    divergences, n_edges, n_triangles = _diff_once(
        comments, window, min_edge_weight, proj, tri, val
    )
    counterexample = None
    if divergences and shrink and comments:
        counterexample = shrink_comments(
            comments,
            lambda cand: bool(
                _diff_once(cand, window, min_edge_weight, proj, tri, val)[0]
            ),
        )
    return Report(
        "PARITY",
        "all engines agree exactly",
        header=[
            f"parity run: {len(comments):,} comments, window {window}, "
            f"cutoff {min_edge_weight}",
            f"  projection engines: {', '.join(proj)}",
            f"  triangle engines:   {', '.join(tri)}",
            f"  validation engines: {', '.join(val)}",
            f"  reference output:   {n_edges:,} CI edges, "
            f"{n_triangles:,} triangles",
        ],
        facts={
            "n_comments": len(comments),
            "n_edges": n_edges,
            "n_triangles": n_triangles,
        },
        sections={"engines": divergences},
        counterexample=counterexample,
    )
