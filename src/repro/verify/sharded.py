"""Sharded-vs-single parity: the query tier's exactness claim, executable.

:class:`~repro.serve.shard.ShardedDetectionService` promises that every
answer it merges across N user-hash shards — global top-k, per-author
scores, cross-shard components — is **bit-identical** to what one
unsharded :class:`~repro.serve.service.DetectionService` would return
over the same stream, under **both ingest modes** (replicated fan-out
and page-hash partitioning with the partial-weight exchange).
:func:`run_sharded_parity` makes that promise executable in the
:mod:`repro.verify.online` idiom:

1. The corpus is sorted by timestamp.  In-order delivery makes the
   final drained engine state independent of micro-batch boundaries,
   so the oracle and every shard topology converge on the same live
   window no matter how their ticks interleave.
2. One single-engine oracle service consumes the stream; then for each
   requested ``(ingest_mode, shard_count)`` pair a fresh
   :class:`ShardedDetectionService` consumes the identical stream.
3. Every queryable surface is diffed: top-k under each available
   ranking (``==`` on the full row dicts — float scores must match
   bit-for-bit), ``user_score`` for a seeded author sample plus one
   absent name, the full component list, ``component_of`` for the same
   sample, and a raw-state probe: in replicated mode shard 0's full
   :meth:`~ShardedDetectionService.shard_results` snapshot structurally
   diffed against the oracle engine's snapshot; in page mode the
   merged ``w'`` ledger (:meth:`~ShardedDetectionService.ci_edges`) and
   ``P'`` ledger (:meth:`~ShardedDetectionService.page_counts`) diffed
   entry-by-entry against the oracle engine's — the exchange's
   additivity claim, checked at the raw-weight level.

Any mismatch becomes a human-readable divergence in the returned
:class:`ShardedParityReport`.  Driven by ``repro-botnets verify
--sharded`` and the ``serve``-marked test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.pipeline.config import PipelineConfig
from repro.serve.service import DetectionService
from repro.serve.shard import ShardedDetectionService
from repro.verify.chaos import diff_results

__all__ = ["ShardedParityReport", "run_sharded_parity"]

Comment = tuple  # (author, page, created_utc)

_DIFF_LIMIT = 4  # listed per-item mismatches before eliding


@dataclass
class ShardedParityReport:
    """Outcome of one sharded-vs-single differential run."""

    n_comments: int
    shard_counts: tuple[int, ...]
    k: int
    seed: int
    ingest_modes: tuple[str, ...] = ("replicated",)
    n_checks: int = 0
    n_authors_sampled: int = 0
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every shard topology matched the single-engine oracle."""
        return not self.divergences

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        counts = ", ".join(str(n) for n in self.shard_counts)
        modes = ", ".join(self.ingest_modes)
        lines = [
            f"sharded parity run: {self.n_comments:,} comments across "
            f"shard counts [{counts}] x ingest modes [{modes}] "
            f"(seed {self.seed})",
            f"  surfaces checked: {self.n_checks} "
            f"(top-{self.k}, {self.n_authors_sampled} sampled authors, "
            "components, raw-state probe)",
        ]
        if self.ok:
            lines.append(
                "  SHARDED PARITY OK — every topology matches the "
                "single-engine oracle bit-for-bit"
            )
        else:
            lines.append(
                f"  SHARDED PARITY FAILED — {len(self.divergences)} "
                "divergence(s):"
            )
            lines += [f"    - {d}" for d in self.divergences]
        return "\n".join(lines)


def _diff_rows(
    kind: str, oracle: list[dict], sharded: list[dict], out: list[str]
) -> None:
    if oracle == sharded:
        return
    if len(oracle) != len(sharded):
        out.append(
            f"{kind}: row count — oracle={len(oracle)} sharded={len(sharded)}"
        )
        return
    bad = [i for i, (a, b) in enumerate(zip(oracle, sharded)) if a != b]
    shown = "; ".join(
        f"row {i}: oracle={oracle[i]!r} sharded={sharded[i]!r}"
        for i in bad[:_DIFF_LIMIT]
    )
    more = len(bad) - min(len(bad), _DIFF_LIMIT)
    suffix = f" (+{more} more)" if more > 0 else ""
    out.append(f"{kind}: {len(bad)} row mismatch(es) — {shown}{suffix}")


def _diff_mapping(kind: str, oracle: dict, sharded: dict, out: list[str]) -> None:
    """Entry-level diff of two ledgers (missing / extra / changed keys)."""
    if oracle == sharded:
        return
    missing = [k for k in oracle if k not in sharded]
    extra = [k for k in sharded if k not in oracle]
    changed = [
        k for k in oracle if k in sharded and oracle[k] != sharded[k]
    ]
    parts = []
    for label, keys in (
        ("missing", missing),
        ("extra", extra),
        ("changed", changed),
    ):
        if keys:
            shown = ", ".join(repr(k) for k in sorted(keys)[:_DIFF_LIMIT])
            more = len(keys) - min(len(keys), _DIFF_LIMIT)
            suffix = f" (+{more} more)" if more > 0 else ""
            parts.append(f"{label}: {shown}{suffix}")
    out.append(f"{kind}: {'; '.join(parts)}")


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
) -> ShardedParityReport:
    """Run one corpus through every shard topology and diff all answers.

    Parameters
    ----------
    comments:
        The corpus to stream, as ``(author, page, created_utc)`` tuples.
        Sorted by timestamp before streaming — in-order delivery is what
        makes final state independent of process topology.
    config:
        Pipeline configuration shared by the oracle and every tier.
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
        Sliding-window width (default: the full corpus span, so nothing
        is evicted and every surface stays populated).
    batch_size / forward_batch / heartbeat_timeout / **service_kwargs:
        Forwarded to the services so oracle and shards tick alike.
    """
    config = config if config is not None else PipelineConfig()
    rng = random.Random(seed)
    stream = sorted(
        [(str(a), str(p), int(t)) for a, p, t in comments],
        key=lambda c: c[2],
    )
    if window_horizon is None:
        if stream:
            span = max(stream[-1][2] - stream[0][2], 1)
        else:
            span = 1
        window_horizon = span + 1

    report = ShardedParityReport(
        n_comments=len(stream),
        shard_counts=tuple(int(n) for n in shard_counts),
        k=int(k),
        seed=seed,
        ingest_modes=tuple(str(m) for m in ingest_modes),
    )

    oracle = DetectionService(
        config,
        window_horizon=window_horizon,
        batch_size=batch_size,
        **service_kwargs,
    )
    oracle.run_events(stream)

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
    report.n_authors_sampled = len(sample)

    oracle_top = {by: oracle.top_k_triplets(k, by=by) for by in ranks}
    oracle_scores = {a: oracle.user_score(a) for a in sample}
    oracle_comps = oracle.components()
    oracle_members = {a: oracle.component_of(a) for a in sample}
    oracle_snapshot = oracle.engine.snapshot()
    oracle_ci = oracle.engine.ci_edges()
    oracle_pp = oracle.engine.page_counts()

    for mode in report.ingest_modes:
        for n in report.shard_counts:
            out = report.divergences
            tag = f"mode={mode} n_shards={n}"
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
                tier.run_events(stream)
                for by in ranks:
                    _diff_rows(
                        f"{tag}: top-{k} by {by}",
                        oracle_top[by],
                        tier.top_k_triplets(k, by=by),
                        out,
                    )
                    report.n_checks += 1
                for author in sample:
                    got = tier.user_score(author)
                    if got != oracle_scores[author]:
                        out.append(
                            f"{tag}: user_score({author!r}) — "
                            f"oracle={oracle_scores[author]!r} sharded={got!r}"
                        )
                    members = tier.component_of(author)
                    if members != oracle_members[author]:
                        out.append(
                            f"{tag}: component_of({author!r}) — "
                            f"oracle={oracle_members[author]!r} "
                            f"sharded={members!r}"
                        )
                    report.n_checks += 2
                comps = tier.components()
                if comps != oracle_comps:
                    out.append(
                        f"{tag}: components — oracle has "
                        f"{len(oracle_comps)}, sharded has {len(comps)} "
                        f"(first oracle={oracle_comps[:1]!r} "
                        f"sharded={comps[:1]!r})"
                    )
                report.n_checks += 1
                if mode == "page":
                    # No shard holds a full engine; probe the exchange's
                    # raw merged ledgers against the oracle's instead.
                    _diff_mapping(
                        f"{tag}: merged w' ledger",
                        oracle_ci,
                        tier.ci_edges(),
                        out,
                    )
                    _diff_mapping(
                        f"{tag}: merged P' ledger",
                        oracle_pp,
                        tier.page_counts(),
                        out,
                    )
                    report.n_checks += 2
                else:
                    state_diff = diff_results(
                        oracle_snapshot, tier.shard_results(0)
                    )
                    for line in state_diff[:_DIFF_LIMIT]:
                        out.append(f"{tag}: shard 0 snapshot — {line}")
                    report.n_checks += 1
            finally:
                tier.close()
    return report
