"""Partial-weight exchange: page-hash ingest shards → exact aggregation.

Under the sharded tier's **page-hash ingest mode** each shard consumes
only the events whose page hashes to it
(:func:`repro.serve.ingest.page_shard_of`), so no shard holds the full
live window.  What makes answers still exact is page locality: a page's
co-comment pairs are computable from that page's timeline alone, and
pages are **disjoint** across shards, so every per-page contribution to
the CI state lives on exactly one shard and the global state is a plain
sum/union of per-shard partials:

- ``w'`` pair weights (eq. 1) — per-page pair contributions, summed by
  user-name pair;
- ``P'`` ledgers — distinct-page counts per user, summed;
- the live user→page incidence (the ``w_xyz``/``p_x`` substrate of
  eqs. 2–3) — unioned (page keys never collide across shards).

A partial travels as one message over the supervisor pipe that already
carries the shard's events and queries: the child pickles its ledgers
(:func:`partial_bytes`, one request per shard per exchange, so the
partial is atomic with respect to that shard's ingest) and the
aggregator unpickles them (:func:`load_partial`), recording the pickled
size as the partial's wire cost.  :func:`merge_partials` is idempotent
under duplicate delivery (partials are deduplicated by ``shard_id``)
and raises :class:`PartialExchangeError` when a shard's partial is
missing, so a torn exchange fails typed instead of under-counting.

This module stops at the merged ledgers.  Thresholding, triangle
closure, scoring (eqs. 2–4, 7) and every query over them are the
engine's own :class:`~repro.serve.engine.ScoringCore`, which the tier
constructs from a :class:`MergedWeights` — the code that answers for a
single engine is the code that answers for the aggregate
(:func:`repro.verify.sharded.run_sharded_parity` sweeps both ingest
modes against the oracle all the same).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Iterable

from repro.serve.engine import DetectionEngine

__all__ = [
    "MergedWeights",
    "PartialExchangeError",
    "PartialWeights",
    "load_partial",
    "merge_partials",
    "partial_bytes",
]


class PartialExchangeError(RuntimeError):
    """A partial-weight exchange is structurally incomplete or invalid.

    Raised when the gathered partials do not cover every ingest shard
    exactly once (after deduplication) or disagree on the shard count —
    aggregating anyway would silently under- or double-count weights.
    """


@dataclass(frozen=True)
class PartialWeights:
    """One ingest shard's additive contribution to the global CI state."""

    shard_id: int
    n_shards: int
    pair_weights: dict[tuple[str, str], int]
    page_counts: dict[str, int]
    incidence: dict[str, dict[str, int]]
    #: Pickled bytes this partial occupied on the pipe (transport cost).
    nbytes: int = 0


@dataclass(frozen=True)
class MergedWeights:
    """The cross-shard aggregate: exactly the single-engine CI state."""

    n_shards: int
    pair_weights: dict[tuple[str, str], int]
    page_counts: dict[str, int]
    incidence: dict[str, dict[str, int]]
    #: Total pickled bytes moved by the exchange (sum over partials).
    exchange_bytes: int = 0


def partial_bytes(
    engine: DetectionEngine, shard_id: int, n_shards: int
) -> bytes:
    """Child-side half of the exchange: the engine's partial, pickled.

    The ledgers go out in the engine's own insertion order, unsorted:
    the aggregate core ranks, tie-breaks and lists by name, never by
    dict order, so sorting would buy nothing — and on a hot page's
    ~40k pairs it would be two thirds of the child's cost.
    """
    return pickle.dumps(
        (
            int(shard_id),
            int(n_shards),
            engine.ci_edges(),
            engine.page_counts(),
            engine.live_incidence(),
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_partial(blob: bytes) -> PartialWeights:
    """Aggregator-side half: rebuild the partial :func:`partial_bytes` sent."""
    shard_id, n_shards, pairs, pages, incidence = pickle.loads(blob)
    return PartialWeights(shard_id, n_shards, pairs, pages, incidence, len(blob))


def merge_partials(
    partials: Iterable[PartialWeights], n_shards: int
) -> MergedWeights:
    """Sum per-shard partials into the exact global CI state.

    Deduplicates by ``shard_id`` — redelivering a shard's partial (a
    retried gather) is idempotent, first delivery wins.  Raises
    :class:`PartialExchangeError` when a shard id is out of range,
    disagrees on *n_shards*, or is missing entirely: page-partitioned
    weights are additive, so a missing partial would silently
    under-count every cross-page weight instead of failing the query.
    """
    n_shards = int(n_shards)
    by_shard: dict[int, PartialWeights] = {}
    for partial in partials:
        if partial.n_shards != n_shards:
            raise PartialExchangeError(
                f"partial from shard {partial.shard_id} was built for "
                f"{partial.n_shards} shard(s), aggregating for {n_shards}"
            )
        if not 0 <= partial.shard_id < n_shards:
            raise PartialExchangeError(
                f"shard id {partial.shard_id} out of range for "
                f"{n_shards} shard(s)"
            )
        # Idempotent under duplicate delivery: first delivery wins.
        by_shard.setdefault(partial.shard_id, partial)
    missing = [sid for sid in range(n_shards) if sid not in by_shard]
    if missing:
        raise PartialExchangeError(
            f"exchange incomplete: no partial from shard(s) {missing} — "
            "aggregating would under-count pair weights"
        )
    pair_weights: dict[tuple[str, str], int] = {}
    page_counts: dict[str, int] = {}
    incidence: dict[str, dict[str, int]] = {}
    nbytes = 0
    for sid in range(n_shards):
        partial = by_shard[sid]
        for pair, w in partial.pair_weights.items():
            pair_weights[pair] = pair_weights.get(pair, 0) + w
        for name, c in partial.page_counts.items():
            page_counts[name] = page_counts.get(name, 0) + c
        for user, pages in partial.incidence.items():
            mine = incidence.setdefault(user, {})
            for page, count in pages.items():
                # Pages are disjoint across shards; += keeps the merge
                # correct even if a caller feeds replicated partials.
                mine[page] = mine.get(page, 0) + count
        nbytes += partial.nbytes
    return MergedWeights(
        n_shards=n_shards,
        pair_weights=pair_weights,
        page_counts=page_counts,
        incidence=incidence,
        exchange_bytes=nbytes,
    )
