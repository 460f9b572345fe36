"""The batch workloads: ``MultiLayerPipeline.run_ndjson`` from outside.

Untraced runs time whole reps.  The traced run re-composes one rep from
the public stage functions under spans, proves the recomposition produced
the same result, then times each kernel alone on the page layer's arrays
and (for ``batch-parallel``) the executors alone on the same shards.
"""

from __future__ import annotations

import statistics
import time
import traceback

import numpy as np

from repro.actions.base import available_layers, resolve_layers
from repro.actions.fuse import fuse_layers
from repro.exec import (
    PROJECTION_PLAN,
    ParallelExecutor,
    SerialExecutor,
    adaptive_shard_count,
    leaked_shm_files,
    page_aligned_shards,
)
from repro.exec.plans import PROJECTION_ROWS_PER_SECOND
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.edgelist import EdgeList
from repro.graph.io import read_comments_ndjson
from repro.graph.ordering import degree_order
from repro.hypergraph.incidence import UserPageIncidence
from repro.hypergraph.triplets import evaluate_triplets
from repro.kernels import (
    cooccur_pairs,
    hyperedge_count,
    merge_triples,
    pair_ledger,
    pair_weights,
    triangle_enum,
    window_bounds,
)
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import component_reports
from repro.pipeline.layers import MultiLayerPipeline
from repro.projection.project import project
from repro.projection.window import TimeWindow
from repro.tripoll.engine import survey_triangles_plan
from repro.tripoll.metrics import t_scores
from repro.tripoll.survey import survey_triangles

from benchmarks.e2e import checks
from benchmarks.e2e.spec import DELTA, MIN_BATCH_REPS, N_WORKERS, quiet
from benchmarks.e2e.tracing import Tracer, self_times

__all__ = ["run"]

SMALL_ROWS = 64
SMALL_CALLS = 200

#: span name -> per-layer metric fed by that span's total self time
_STAGE_METRICS = {
    "graph.io.parse": "graph.io.parse_s",
    "actions.extract": "actions.extract_s",
    "graph.build": "graph.build_s",
    "graph.filter": "graph.filter_s",
    "projection.project": "projection.project_s",
    "projection.threshold": "projection.threshold_s",
    "tripoll.survey": "tripoll.survey_s",
    "tripoll.tscore": "tripoll.tscore_s",
    "graph.components": "graph.components_s",
    "hypergraph.validate": "hypergraph.validate_s",
    "actions.fuse": "actions.fuse_s",
    "rep": "pipeline.residual_s",
}


def _config(spec: dict) -> PipelineConfig:
    return PipelineConfig(
        window=TimeWindow(*DELTA),
        min_triangle_weight=spec["cutoff"],
        executor=spec["executor"],
        n_workers=N_WORKERS,
    )


def run(job: dict, tracer: Tracer | None) -> dict:
    """Run one batch workload; returns metrics, op counts and problems."""
    cfg = _config(job["spec"])
    pipe = MultiLayerPipeline(cfg, layers=available_layers())
    out = {"metrics": {}, "attempted": 0, "failed": 0, "problems": []}
    if tracer is None:
        _run_untraced(job, pipe, out)
    else:
        _run_traced(job, cfg, pipe, tracer, out)
    leaked = leaked_shm_files()
    if leaked:
        out["problems"].append(f"leaked shm files: {leaked[:3]}")
    return out


def _checked_rep(job: dict, pipe: MultiLayerPipeline, out: dict):
    """One whole ``run_ndjson`` rep, checked; returns (wall, observation)."""
    out["attempted"] += 1
    try:
        t0 = time.perf_counter()
        result = pipe.run_ndjson(job["ndjson"])
        wall = time.perf_counter() - t0
    except Exception:
        out["failed"] += 1
        out["problems"].append("rep raised:\n" + traceback.format_exc())
        return None
    seen = checks.observe(
        checks.result_parts(result),
        result.fused,
        result.fused_components,
        job["truth"],
    )
    expected = job["expected"]
    if expected is not None and seen != expected:
        out["failed"] += 1
        diff = [key for key in seen if seen[key] != expected.get(key)]
        out["problems"].append(f"rep differs from expected.json on {diff}")
        return None
    out["observed"] = seen
    return wall, seen


def _run_untraced(job: dict, pipe: MultiLayerPipeline, out: dict) -> None:
    warm = _checked_rep(job, pipe, out)  # warm-up, not timed
    walls: list[float] = []
    # Stop before the rep that would overshoot the measuring time.
    while warm is not None and (
        len(walls) < MIN_BATCH_REPS
        or sum(walls) + statistics.median(walls) <= job["seconds"]
    ):
        rep = _checked_rep(job, pipe, out)
        if rep is None:
            break
        walls.append(rep[0])
    if not walls:
        return
    # The batch path has one latency, the run: getting a result back after
    # a restart, or an answer to a question, both mean running the job.
    # The other end-to-end metrics restate it (README "Metric definitions").
    detect_s = quiet(walls)
    out["metrics"] = {
        "detect_s": detect_s,
        "ingest_events_per_s": job["n_rows"] / detect_s,
        "recover_s": detect_s,
        "query_p50_ms": 1000.0 * detect_s,
        "query_p95_ms": 1000.0 * detect_s,
    }
    out["samples"] = {"rep_walls_s": walls}


def _run_traced(
    job: dict, cfg: PipelineConfig, pipe: MultiLayerPipeline, tracer: Tracer, out: dict
) -> None:
    if _checked_rep(job, pipe, out) is None:  # warm-up
        return
    reference = _checked_rep(job, pipe, out)
    if reference is None:
        return
    untraced_wall, ref_seen = reference

    out["attempted"] += 1
    tracer.rep = 1
    t0 = time.perf_counter()
    with tracer.span("rep"):
        parts, fused, fused_components, counts, page = _traced_rep(
            job["ndjson"], cfg, tracer
        )
    traced_wall = time.perf_counter() - t0
    seen = checks.observe(parts, fused, fused_components, job["truth"])
    if seen != ref_seen:
        out["failed"] += 1
        out["problems"].append("traced recomposition differs from run_ndjson")

    totals, _ = self_times(tracer.spans)
    metrics = out["metrics"]
    for span_name, metric in _STAGE_METRICS.items():
        metrics[metric] = totals.get(span_name, 0.0)
    metrics.update(counts)
    metrics["trace.overhead_ratio"] = tracer.overhead_ratio(traced_wall)
    metrics.update(_kernel_metrics(cfg, *page))
    if cfg.executor == "parallel":
        metrics.update(_exec_metrics(cfg, page[0], out))
    out["samples"] = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}


def _traced_rep(path: str, cfg: PipelineConfig, tracer: Tracer):
    """``run_ndjson`` spelled out stage by stage, each under a span."""
    keys = resolve_layers(available_layers())
    # Parsing and extraction alternate per record, exactly as in
    # ``btms_from_ndjson`` (holding 128k parsed dicts to time the two apart
    # would cost more than either); their time is accumulated per record.
    triples: dict[str, list] = {key.name: [] for key in keys}
    n_rows = 0
    parse_s = extract_s = 0.0
    loop_start = mark = time.perf_counter()
    for rec in read_comments_ndjson(path):
        parsed = time.perf_counter()
        parse_s += parsed - mark
        n_rows += 1
        author = rec["author"]
        created = int(rec["created_utc"])
        for key in keys:
            values = key.extract(rec)
            if values:
                triples[key.name].extend((author, value, created) for value in values)
        mark = time.perf_counter()
        extract_s += mark - parsed
    tracer.add_span("graph.io.parse", loop_start, loop_start + parse_s)
    tracer.add_span("actions.extract", loop_start + parse_s, loop_start + parse_s + extract_s)
    with tracer.span("graph.build"):
        btms = {
            name: BipartiteTemporalMultigraph.from_comments(rows)
            for name, rows in triples.items()
        }

    counts = {
        "graph.io.rows": n_rows,
        "projection.sort_s": 0.0,
        "projection.plan_s": 0.0,
        "projection.wrap_s": 0.0,
        "projection.pair_observations": 0,
        "projection.ci_edges": 0,
        "tripoll.triangles": 0,
        "hypergraph.triplets": 0,
    }
    parts: dict[str, checks.LayerParts] = {}
    page = None
    for key in keys:
        # The pipeline opens one pool per layer run; so does this.
        executor = (
            ParallelExecutor(cfg.n_workers) if cfg.executor == "parallel" else None
        )
        try:
            with tracer.span("graph.filter"):
                filtered, _report = cfg.author_filter.apply(btms[key.name])
            with tracer.span("projection.project"):
                proj = project(
                    filtered, cfg.window, pair_batch=cfg.pair_batch, executor=executor
                )
            ci = proj.ci
            with tracer.span("projection.threshold"):
                ci_thr = ci.threshold(cfg.min_triangle_weight)
            with tracer.span("tripoll.survey"):
                if executor is not None:
                    tri = survey_triangles_plan(ci_thr.edges, executor)
                else:
                    tri = survey_triangles(ci_thr.edges, wedge_batch=cfg.wedge_batch)
                tri = tri.sorted_canonical()
            with tracer.span("tripoll.tscore"):
                t_vals = t_scores(tri, ci.page_counts)
            with tracer.span("graph.components"):
                components = component_reports(ci_thr, cfg.min_component_size)
            with tracer.span("hypergraph.validate"):
                inc = UserPageIncidence.from_btm(filtered)
                metrics = evaluate_triplets(inc, tri, executor=executor)
        finally:
            if executor is not None:
                executor.close()
        for stage in ("sort", "plan", "wrap"):
            counts[f"projection.{stage}_s"] += proj.timings.stages.get(stage, 0.0)
        counts["projection.pair_observations"] += int(proj.stats["pair_observations"])
        counts["projection.ci_edges"] += int(proj.stats["ci_edges"])
        counts["tripoll.triangles"] += int(tri.n_triangles)
        counts["hypergraph.triplets"] += int(metrics.w_xyz.shape[0])
        parts[key.name] = (ci, ci_thr, tri, t_vals, metrics, components)
        if key.name == "page":
            page = (filtered, ci_thr, tri, inc)

    with tracer.span("actions.fuse"):
        fused = fuse_layers(
            {name: layer[1] for name, layer in parts.items()},
            weights=dict(cfg.layer_weights) or None,
        )
        fused_components = fused.components(min_size=cfg.min_component_size)
    return parts, fused, fused_components, counts, page


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _kernel_metrics(cfg: PipelineConfig, filtered, ci_thr, tri, inc) -> dict[str, float]:
    """Each kernel alone: once on the page layer's arrays, and at 64 rows."""
    users, pages, times, _bounds = filtered.page_sorted_view()
    window, batch, n_users = cfg.window, cfg.pair_batch, filtered.user_id_space
    pg, a, b = merge_triples(
        [part[:3] for part in cooccur_pairs(users, pages, times, window, batch)]
    )
    edges = ci_thr.edges.accumulate()

    def cases(rows: slice) -> dict:
        e = EdgeList(edges.src[rows], edges.dst[rows], edges.weight[rows])
        n = e.max_vertex + 1 if e.n_edges else 0
        rank = degree_order(e, n) if e.n_edges else None
        u, p, t = users[rows], pages[rows], times[rows]
        return {
            "window_bounds": lambda: window_bounds(p, t, window),
            "cooccur_pairs": lambda: list(cooccur_pairs(u, p, t, window, batch)),
            "pair_weights": lambda: pair_weights(a[rows], b[rows]),
            "pair_ledger": lambda: pair_ledger(pg[rows], a[rows], b[rows], n_users),
            "triangle_enum": lambda: list(
                triangle_enum(e.src, e.dst, e.weight, rank, n, cfg.wedge_batch)
            ),
            "hyperedge_count": lambda: hyperedge_count(
                inc.indptr, inc.page_ids, tri.a[rows], tri.b[rows], tri.c[rows]
            ),
        }

    metrics = {}
    for name, fn in cases(slice(None)).items():
        metrics[f"kernels.{name}.large_s"] = _seconds(fn)
    for name, fn in cases(slice(0, SMALL_ROWS)).items():
        calls = [_seconds(fn) for _ in range(SMALL_CALLS)]
        metrics[f"kernels.{name}.small_us"] = 1e6 * statistics.median(calls)
    return metrics


def _exec_metrics(cfg: PipelineConfig, filtered, out: dict) -> dict[str, float]:
    """The two executors alone on the same page-aligned projection shards."""
    users, pages, times, _bounds = filtered.page_sorted_view()
    n_shards = adaptive_shard_count(
        users.shape[0], cfg.n_workers, PROJECTION_ROWS_PER_SECOND
    )
    shards = page_aligned_shards(users, pages, times, n_shards)
    context = {
        "delta1": cfg.window.delta1,
        "delta2": cfg.window.delta2,
        "pair_batch": int(cfg.pair_batch),
        "n_users": filtered.user_id_space,
    }
    out["attempted"] += 1
    executor = ParallelExecutor(cfg.n_workers)
    try:
        pool_start_s = _seconds(executor.__enter__)
        t0 = time.perf_counter()
        parallel = executor.run(PROJECTION_PLAN, shards, context)
        parallel_s = time.perf_counter() - t0
    finally:
        executor.close()
    t0 = time.perf_counter()
    serial = SerialExecutor().run(PROJECTION_PLAN, shards, context)
    serial_s = time.perf_counter() - t0
    same = all(
        np.array_equal(parallel[k], serial[k]) for k in ("ua", "ub", "w", "page_counts")
    )
    if not same:
        out["failed"] += 1
        out["problems"].append("parallel and serial projection reductions differ")
    published = sum(arr.nbytes for shard in shards for arr in shard)
    claimed = sum(parallel[k].nbytes for k in ("pg", "a", "b"))
    return {
        "exec.pool_start_s": pool_start_s,
        "exec.projection_run_s": parallel_s,
        "exec.serial_run_s": serial_s,
        "exec.speedup": serial_s / parallel_s,
        "exec.n_shards": len(shards),
        "exec.shm_bytes": published + claimed,
        "exec.workers": cfg.n_workers,
    }
