"""Sharded-vs-single parity: the query tier's exactness claim, executable.

:class:`~repro.serve.shard.ShardedDetectionService` promises that every
answer it merges across N user-hash shards — global top-k, per-author
scores, cross-shard components — is **bit-identical** to what one
unsharded :class:`~repro.serve.service.DetectionService` would return
over the same stream, under **both ingest modes** (replicated fan-out
and page-hash partitioning with the claim exchange), and at every point
of the stream, not only at its end.  :func:`run_sharded_parity` makes
that promise executable in the :mod:`repro.verify.online` idiom:

1. The corpus is sorted by timestamp.  In-order delivery makes the
   drained engine state at any prefix independent of micro-batch
   boundaries, so the oracle and every shard topology converge on the
   same live window no matter how their ticks interleave.
2. The stream is cut into :data:`CHECKPOINTS` equal segments under a window
   horizon that evicts, so later checkpoints answer after evictions and
   page mode's aggregate answers from ledger deltas claimed since the
   checkpoint before.  One single-engine oracle service consumes the
   stream segment by segment and answers at every checkpoint, and a
   from-scratch :class:`~repro.pipeline.framework.CoordinationPipeline`
   run over that checkpoint's live window is the batch oracle.
3. For each requested ``(ingest_mode, shard_count)`` pair a fresh
   :class:`ShardedDetectionService` consumes the identical segments and
   every queryable surface is diffed at every checkpoint: top-k under
   each available ranking (``==`` on the full row dicts — float scores
   must match bit-for-bit) against both oracles, ``user_score`` for a
   seeded author sample plus one absent name, the full component list
   (against both oracles), ``component_of`` for the same sample, and a
   raw-state probe: in replicated mode shard 0's full
   :meth:`~ShardedDetectionService.shard_results` snapshot structurally
   diffed against the oracle engine's snapshot; in page mode the merged
   ``w'`` ledger (:meth:`~ShardedDetectionService.ci_edges`) and ``P'``
   ledger (:meth:`~ShardedDetectionService.page_counts`) diffed
   entry-by-entry against the oracle engine's — the exchange's
   additivity claim, checked at the raw-weight level.

Any mismatch becomes a human-readable divergence in the returned
:class:`~repro.verify.report.Report`.  Driven by ``repro-botnets verify
--sharded`` and the ``serve``-marked test suite.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.analysis.export import top_triplets_rows
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import CoordinationPipeline
from repro.serve.service import DetectionService
from repro.serve.shard import ShardedDetectionService
from repro.verify.chaos import diff_results
from repro.verify.report import Report, diff_mapping, diff_rows

__all__ = ["run_sharded_parity"]

#: Equal stream segments after each of which every surface is diffed.
CHECKPOINTS = 3

Comment = tuple  # (author, page, created_utc)


def run_sharded_parity(
    comments: Sequence[Comment],
    config: PipelineConfig | None = None,
    *,
    shard_counts: Sequence[int] = (1, 2, 4),
    ingest_modes: Sequence[str] = ("replicated", "page"),
    k: int = 25,
    seed: int = 0,
    sample_authors: int = 12,
    window_horizon: int | None = None,
    batch_size: int = 64,
    forward_batch: int = 64,
    heartbeat_timeout: float = 30.0,
    **service_kwargs,
) -> Report:
    """Run one corpus through every shard topology and diff all answers.

    Parameters
    ----------
    comments:
        The corpus to stream, as ``(author, page, created_utc)`` tuples.
        Sorted by timestamp before streaming — in-order delivery is what
        makes the state at every checkpoint independent of topology.
    config:
        Pipeline configuration shared by the oracles and every tier.
    shard_counts:
        The topologies to exercise (``1`` included proves the facade
        itself adds nothing even without real partitioning).
    ingest_modes:
        Ingest partitioning modes to sweep — any subset of
        ``("replicated", "page")``.  Every mode runs at every shard
        count.
    k:
        Top-k depth compared under every available ranking.
    seed / sample_authors:
        Seeded author sample for the per-user surfaces; one absent
        author is always added.
    window_horizon:
        Sliding-window width (default: half the corpus span, so the
        window evicts before the later checkpoints).
    batch_size / forward_batch / heartbeat_timeout / **service_kwargs:
        Forwarded to the services so oracle and shards tick alike.
    """
    config = config if config is not None else PipelineConfig()
    shard_counts = tuple(int(n) for n in shard_counts)
    ingest_modes = tuple(str(m) for m in ingest_modes)
    rng = random.Random(seed)
    stream = sorted(
        [(str(a), str(p), int(t)) for a, p, t in comments],
        key=lambda c: c[2],
    )
    if window_horizon is None:
        span = stream[-1][2] - stream[0][2] if stream else 0
        window_horizon = max(span // 2, 1)
    marks = sorted(
        {len(stream) * i // CHECKPOINTS for i in range(1, CHECKPOINTS + 1)}
    )

    ranks = ["t", "min_weight"] + (
        ["c"] if config.compute_hypergraph else []
    )
    authors = sorted({a for a, _p, _t in stream})
    sample = (
        rng.sample(authors, min(int(sample_authors), len(authors)))
        if authors
        else []
    )
    sample.append("__absent_author__")

    # The oracles' answers at every checkpoint, shared by all topologies.
    oracle = DetectionService(
        config,
        window_horizon=window_horizon,
        batch_size=batch_size,
        **service_kwargs,
    )
    expected = []
    start = 0
    for mark in marks:
        oracle.run_events(stream[start:mark])
        start = mark
        cutoff = oracle.engine.evict_cutoff
        live = [c for c in stream[:mark] if cutoff is None or c[2] >= cutoff]
        batch = CoordinationPipeline(config).run(
            BipartiteTemporalMultigraph.from_comments(live)
        )
        expected.append(
            {
                "top": {by: oracle.top_k_triplets(k, by=by) for by in ranks},
                "batch_top": {by: top_triplets_rows(batch, k, by) for by in ranks},
                "scores": {a: oracle.user_score(a) for a in sample},
                "components": oracle.components(),
                "batch_components": sorted(
                    (sorted(names) for names in batch.component_name_lists()),
                    key=lambda names: (-len(names), names),
                ),
                "members": {a: oracle.component_of(a) for a in sample},
                "snapshot": oracle.engine.snapshot(),
                "ci": oracle.engine.ci_edges(),
                "pp": oracle.engine.page_counts(),
            }
        )

    out: list[str] = []
    n_checks = 0
    for mode in ingest_modes:
        for n in shard_counts:
            tier = ShardedDetectionService(
                config,
                n_shards=n,
                ingest_sharding=mode,
                window_horizon=window_horizon,
                batch_size=batch_size,
                forward_batch=forward_batch,
                heartbeat_timeout=heartbeat_timeout,
                **service_kwargs,
            )
            try:
                start = 0
                for mark, want in zip(marks, expected):
                    tier.run_events(stream[start:mark])
                    start = mark
                    tag = f"mode={mode} n_shards={n} @{mark}"
                    out += _diff_tier(tag, tier, mode, want, ranks, k, sample)
                    probes = 2 if mode == "page" else 1
                    n_checks += 2 * len(ranks) + 2 * len(sample) + 2 + probes
            finally:
                tier.close()
    return Report(
        "SHARDED PARITY",
        "every topology matches the single-engine oracle bit-for-bit",
        header=[
            f"sharded parity run: {len(stream):,} comments across "
            f"shard counts [{', '.join(str(n) for n in shard_counts)}] x "
            f"ingest modes [{', '.join(ingest_modes)}] (seed {seed})",
            f"  checkpoints: after [{', '.join(f'{m:,}' for m in marks)}] "
            f"comments, window horizon {window_horizon:,} s",
            f"  surfaces checked: {n_checks} "
            f"(top-{k} vs engine and batch, {len(sample)} sampled authors, "
            "components, raw-state probe)",
        ],
        facts={"n_comments": len(stream), "n_checks": n_checks},
        sections={"topologies": out},
    )


def _diff_tier(
    tag: str,
    tier: ShardedDetectionService,
    mode: str,
    want: dict,
    ranks: list[str],
    k: int,
    sample: list[str],
) -> list[str]:
    """Every surface of *tier* against one checkpoint's oracle answers."""
    out: list[str] = []
    for by in ranks:
        got = tier.top_k_triplets(k, by=by)
        out += diff_rows(f"{tag}: top-{k} by {by}", want["top"][by], got)
        out += diff_rows(
            f"{tag}: top-{k} by {by} vs batch", want["batch_top"][by], got
        )
    out += diff_mapping(
        f"{tag}: user_score",
        want["scores"],
        {a: tier.user_score(a) for a in sample},
    )
    out += diff_mapping(
        f"{tag}: component_of",
        want["members"],
        {a: tier.component_of(a) for a in sample},
    )
    components = tier.components()
    out += diff_rows(f"{tag}: components", want["components"], components)
    out += diff_rows(
        f"{tag}: components vs batch", want["batch_components"], components
    )
    if mode == "page":
        # No shard holds a full engine; probe the exchange's raw merged
        # ledgers against the oracle's instead.
        out += diff_mapping(f"{tag}: merged w' ledger", want["ci"], tier.ci_edges())
        out += diff_mapping(
            f"{tag}: merged P' ledger", want["pp"], tier.page_counts()
        )
    else:
        out += [
            f"{tag}: shard 0 snapshot — {line}"
            for line in diff_results(want["snapshot"], tier.shard_results(0))
        ]
    return out
