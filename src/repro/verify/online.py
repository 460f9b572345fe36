"""Online-vs-batch parity: the serve engine's exactness contract, executable.

The :class:`~repro.serve.engine.DetectionEngine` promises that after
*any* interleaving of appends, out-of-order arrivals, and window
advances, every query answer equals a from-scratch
:class:`~repro.pipeline.framework.CoordinationPipeline` run over exactly
the live (admitted, unevicted) comments.  :func:`run_online_parity`
makes that promise executable in the :mod:`repro.verify.parity` idiom:

1. A seeded RNG scrambles a comment corpus into an *arrival order*
   (event time + bounded random delay — genuine out-of-order delivery),
   then chops it into random micro-batches.
2. Each step either ingests a batch or advances the watermark-derived
   eviction cutoff; the harness maintains its own live-corpus list
   under the engine's exact admission rule (late events are dropped by
   both sides, so the oracle input is always well-defined).
3. At checkpoints (and always at the end), every queryable surface —
   CI edge weights, the nonzero ``P'`` ledger, per-triplet
   ``weights/T/w_xyz/p_sum/C``, and the candidate components — is
   diffed **by author name** against a fresh batch run.  Name-keying is
   what makes the diff order-independent: the engine interns ids in
   arrival order, the oracle in corpus order.

Any mismatch becomes a human-readable divergence in the returned
:class:`~repro.verify.report.Report`; float scores are compared bit-exactly
(``==``), because the engine replays the very same IEEE operations the
batch kernels perform.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import CoordinationPipeline
from repro.pipeline.results import PipelineResult
from repro.serve.engine import DetectionEngine
from repro.verify.report import Report, diff_mapping

__all__ = ["run_online_parity"]

Comment = tuple  # (author, page, created_utc)


def _oracle_views(result: PipelineResult):
    """Name-keyed views of a batch run (edges, P', triplets, components)."""
    name = result.ci.author_name
    edges = {}
    for (u, v), w in result.ci.edges.to_dict().items():
        a, b = str(name(u)), str(name(v))
        edges[(a, b) if a <= b else (b, a)] = w
    pprime = {
        str(name(i)): int(c)
        for i, c in enumerate(result.ci.page_counts)
        if c
    }
    tris = {}
    tm = result.triplet_metrics
    t = result.triangles
    for i in range(t.n_triangles):
        names = tuple(
            sorted(str(name(int(x))) for x in (t.a[i], t.b[i], t.c[i]))
        )
        weights = tuple(
            sorted(int(w) for w in (t.w_ab[i], t.w_ac[i], t.w_bc[i]))
        )
        row = {
            "weights": weights,
            "t": float(result.t_scores[i]),
        }
        if tm is not None:
            row["w_xyz"] = int(tm.w_xyz[i])
            row["p_sum"] = int(tm.p_sum[i])
            row["c"] = float(tm.c_scores[i])
        tris[names] = row
    comps = dict.fromkeys(
        tuple(sorted(c.member_names)) for c in result.components
    )
    return edges, pprime, tris, comps


def _engine_views(engine: DetectionEngine):
    """The same four views read from the live engine."""
    tris = {}
    hyper = engine.config.compute_hypergraph
    for r in engine.top_k_triplets(1 << 62):
        row = {"weights": r["weights"], "t": r["t"]}
        if hyper:
            row["w_xyz"] = r["w_xyz"]
            row["p_sum"] = r["p_sum"]
            row["c"] = r["c"]
        tris[r["authors"]] = row
    comps = dict.fromkeys(tuple(sorted(c)) for c in engine.components())
    return engine.ci_edges(), engine.page_counts(), tris, comps


def _check(
    step: str,
    config: PipelineConfig,
    live: Sequence[Comment],
    engine: DetectionEngine,
) -> list[str]:
    result = CoordinationPipeline(config).run(
        BipartiteTemporalMultigraph.from_comments(list(live))
    )
    o_edges, o_pp, o_tris, o_comps = _oracle_views(result)
    e_edges, e_pp, e_tris, e_comps = _engine_views(engine)
    out = (
        diff_mapping(f"{step}: CI edges", o_edges, e_edges)
        + diff_mapping(f"{step}: P' ledger", o_pp, e_pp)
        + diff_mapping(f"{step}: triplets", o_tris, e_tris)
        + diff_mapping(f"{step}: components", o_comps, e_comps)
    )
    expected = len(live) - result.filter_report.removed_comments
    if not out and engine.n_live_comments != expected:
        out.append(
            f"{step}: live-comment count — {engine.n_live_comments} != "
            f"{expected}"
        )
    return out


def run_online_parity(
    comments: Sequence[Comment],
    config: PipelineConfig | None = None,
    *,
    n_steps: int = 60,
    seed: int = 0,
    max_delay: int | None = None,
    horizon: int | None = None,
    check_every: int = 10,
    compact_min: int = 64,
) -> Report:
    """Drive a seeded append/advance interleaving and diff against batch runs.

    Parameters
    ----------
    comments:
        The corpus to stream, as ``(author, page, created_utc)`` tuples.
    config:
        Pipeline configuration shared by engine and oracle (defaults to
        :class:`~repro.pipeline.config.PipelineConfig`'s defaults).
    n_steps:
        Number of interleaved steps (~75 % ingest batches, ~25 % window
        advances, RNG-chosen).
    seed:
        RNG seed controlling arrival delays, batch boundaries, and the
        ingest/advance interleaving — reruns reproduce exactly.
    max_delay:
        Maximum random arrival delay in seconds (default: one tenth of
        the corpus time span) — the out-of-order severity knob.
    horizon:
        Sliding-window width driving the advance cutoffs (default: half
        the corpus time span, so evictions genuinely happen).
    check_every:
        Run the (expensive) full-surface oracle diff every this many
        steps; a final check always runs after the last step.
    compact_min:
        Engine compaction floor — kept small so long runs also exercise
        compaction-under-churn.
    """
    config = config if config is not None else PipelineConfig()
    rng = random.Random(seed)
    # Normalize keys to strings so engine and oracle intern identical
    # names (the oracle's BTM falls back to synthetic "user<id>" labels
    # for raw integer authors, which would defeat the name-keyed diff).
    comments = [(str(a), str(p), int(t)) for a, p, t in comments]
    if comments:
        t_lo = min(t for _a, _p, t in comments)
        t_hi = max(t for _a, _p, t in comments)
        span = max(t_hi - t_lo, 1)
    else:
        t_lo = t_hi = 0
        span = 1
    if max_delay is None:
        max_delay = max(span // 10, 1)
    if horizon is None:
        horizon = max(span // 2, 1)

    # Arrival order: event time plus a bounded random delay.
    arrivals = sorted(
        comments, key=lambda c: (c[2] + rng.randrange(0, max_delay + 1), rng.random())
    )
    engine = DetectionEngine(config, compact_min=compact_min)
    facts = dict(
        n_comments=len(comments),
        n_checks=0,
        n_ingested=0,
        n_advances=0,
        n_late_dropped=0,
        max_triangles=0,
    )
    divergences: list[str] = []
    live: list[Comment] = []
    cursor = 0
    max_seen = t_lo

    for step in range(n_steps):
        remaining = len(arrivals) - cursor
        steps_left = n_steps - step
        if remaining and (rng.random() < 0.75 or steps_left * 2 >= remaining):
            # Ingest a batch sized to roughly exhaust the stream in time.
            target = max(1, remaining // max(1, steps_left - steps_left // 4))
            size = rng.randrange(1, 2 * target + 1)
            batch = arrivals[cursor : cursor + size]
            cursor += len(batch)
            cut = engine.evict_cutoff
            admitted = [c for c in batch if cut is None or c[2] >= cut]
            facts["n_late_dropped"] += len(batch) - len(admitted)
            engine.ingest(batch)
            live.extend(admitted)
            max_seen = max([max_seen] + [c[2] for c in batch])
            facts["n_ingested"] += 1
        else:
            cutoff = max_seen - horizon + rng.randrange(0, max(horizon // 4, 1))
            engine.advance(cutoff)
            cut = engine.evict_cutoff
            live = [c for c in live if c[2] >= cut]
            facts["n_advances"] += 1
        facts["max_triangles"] = max(facts["max_triangles"], engine.n_triangles)
        if (step + 1) % check_every == 0:
            divergences += _check(f"step {step + 1}", config, live, engine)
            facts["n_checks"] += 1

    if facts["n_checks"] == 0 or n_steps % check_every != 0:
        divergences += _check("final", config, live, engine)
        facts["n_checks"] += 1
    return Report(
        "ONLINE PARITY",
        "engine matches batch oracle at every check",
        header=[
            f"online parity run: {len(comments):,} comments over "
            f"{n_steps} steps (seed {seed})",
            "  ingest batches: {n_ingested}, window advances: "
            "{n_advances}, late drops: {n_late_dropped}".format(**facts),
            "  oracle checks: {n_checks}, peak triangles: "
            "{max_triangles:,}".format(**facts),
        ],
        facts=facts,
        sections={"checks": divergences},
    )
