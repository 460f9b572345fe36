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
  eqs. 2–3) — unioned (page keys never collide across shards);
- the author-filter census — name union plus comment-count sum.

The exchange itself reuses the :mod:`repro.exec.shm` output path of
the batch executors: the child packs its partial into
numeric arrays (strings length-prefix-packed into ``uint8`` blobs),
publishes them as shared-memory segments
(:func:`publish_partial_weights`), and the aggregator claims them —
copy + unlink, so a completed exchange leaves ``/dev/shm`` clean
(:func:`claim_partial_weights`).  :func:`merge_partials` is idempotent
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

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.exec.shm import OutputWriter, claim_output
from repro.serve.engine import DetectionEngine

__all__ = [
    "MergedWeights",
    "PartialExchangeError",
    "PartialWeights",
    "claim_partial_weights",
    "merge_partials",
    "pack_str_array",
    "publish_partial_weights",
    "unpack_str_array",
]


class PartialExchangeError(RuntimeError):
    """A partial-weight exchange is structurally incomplete or invalid.

    Raised when the gathered partials do not cover every ingest shard
    exactly once (after deduplication) or disagree on the shard count —
    aggregating anyway would silently under- or double-count weights.
    """


# ---------------------------------------------------------------------------
# String packing (shm segments carry numeric dtypes only)
# ---------------------------------------------------------------------------


def pack_str_array(values: Iterable[object]) -> dict[str, np.ndarray]:
    """Length-prefix-pack strings into shm-safe numeric arrays."""
    blobs = [str(v).encode("utf-8", "surrogatepass") for v in values]
    lengths = np.asarray([len(b) for b in blobs], dtype=np.int64)
    data = (
        np.frombuffer(b"".join(blobs), dtype=np.uint8).copy()
        if blobs
        else np.empty(0, dtype=np.uint8)
    )
    return {"packed_data": data, "packed_lengths": lengths}


def unpack_str_array(packed: Mapping[str, np.ndarray]) -> list[str]:
    """Inverse of :func:`pack_str_array`."""
    data = packed["packed_data"].tobytes()
    out: list[str] = []
    offset = 0
    for n in packed["packed_lengths"].tolist():
        out.append(data[offset : offset + n].decode("utf-8", "surrogatepass"))
        offset += n
    return out


# ---------------------------------------------------------------------------
# The partial itself: publish (child) / claim (aggregator) / merge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialWeights:
    """One ingest shard's additive contribution to the global CI state."""

    shard_id: int
    n_shards: int
    pair_weights: dict[tuple[str, str], int]
    page_counts: dict[str, int]
    incidence: dict[str, dict[str, int]]
    filtered_names: tuple[str, ...]
    filtered_comments: int
    n_live_comments: int
    #: Bytes claimed from shared memory for this partial (transport cost).
    nbytes: int = 0


@dataclass(frozen=True)
class MergedWeights:
    """The cross-shard aggregate: exactly the single-engine CI state."""

    n_shards: int
    pair_weights: dict[tuple[str, str], int]
    page_counts: dict[str, int]
    incidence: dict[str, dict[str, int]]
    filtered_names: tuple[str, ...]
    filtered_comments: int
    n_live_comments: int
    #: Total shm bytes moved by the exchange (sum over partials).
    exchange_bytes: int = 0


def publish_partial_weights(
    engine: DetectionEngine, shard_id: int, n_shards: int, writer: OutputWriter
) -> dict[str, Any]:
    """Child-side half of the exchange: engine partials → shm segments.

    Everything is serialized in sorted order so the payload is a pure
    function of engine state (deterministic across runs).  Returns a
    picklable ``{"arrays": ShmRef tree, "meta": ...}`` payload for the
    pipe; the caller must claim it with :func:`claim_partial_weights`.
    """
    pairs = sorted(engine.ci_edges().items())
    pprime = sorted(engine.page_counts().items())
    incidence = engine.live_incidence()
    flat_inc = [
        (user, page, count)
        for user in sorted(incidence)
        for page, count in sorted(incidence[user].items())
    ]
    arrays: dict[str, Any] = {
        "pair_a": pack_str_array(a for (a, _b), _w in pairs),
        "pair_b": pack_str_array(b for (_a, b), _w in pairs),
        "pair_w": np.asarray([w for _p, w in pairs], dtype=np.int64),
        "pp_names": pack_str_array(n for n, _c in pprime),
        "pp_counts": np.asarray([c for _n, c in pprime], dtype=np.int64),
        "inc_users": pack_str_array(u for u, _p, _c in flat_inc),
        "inc_pages": pack_str_array(p for _u, p, _c in flat_inc),
        "inc_counts": np.asarray(
            [c for _u, _p, c in flat_inc], dtype=np.int64
        ),
        "filtered_names": pack_str_array(sorted(engine.filtered_names())),
    }
    meta = {
        "shard_id": int(shard_id),
        "n_shards": int(n_shards),
        "filtered_comments": int(engine.filtered_comments),
        "n_live_comments": int(engine.n_live_comments),
    }
    return {"arrays": writer.share(arrays), "meta": meta}


def _tree_nbytes(tree: Any) -> int:
    if isinstance(tree, np.ndarray):
        return int(tree.nbytes)
    if isinstance(tree, Mapping):
        return sum(_tree_nbytes(v) for v in tree.values())
    return 0


def claim_partial_weights(payload: Mapping[str, Any]) -> PartialWeights:
    """Aggregator-side half: claim the segments and rebuild the partial.

    Claiming copies and unlinks every segment (the
    :func:`repro.exec.shm.claim_output` contract), so a completed
    exchange leaves ``/dev/shm`` clean;
    :func:`repro.exec.shm.sweep_segments` is the crash backstop.
    """
    arrays = claim_output(payload["arrays"])
    meta = payload["meta"]
    pair_a = unpack_str_array(arrays["pair_a"])
    pair_b = unpack_str_array(arrays["pair_b"])
    pair_w = arrays["pair_w"].tolist()
    pp_names = unpack_str_array(arrays["pp_names"])
    pp_counts = arrays["pp_counts"].tolist()
    inc_users = unpack_str_array(arrays["inc_users"])
    inc_pages = unpack_str_array(arrays["inc_pages"])
    inc_counts = arrays["inc_counts"].tolist()
    incidence: dict[str, dict[str, int]] = {}
    for user, page, count in zip(inc_users, inc_pages, inc_counts):
        incidence.setdefault(user, {})[page] = int(count)
    return PartialWeights(
        shard_id=int(meta["shard_id"]),
        n_shards=int(meta["n_shards"]),
        pair_weights={
            (a, b): int(w) for a, b, w in zip(pair_a, pair_b, pair_w)
        },
        page_counts={n: int(c) for n, c in zip(pp_names, pp_counts)},
        incidence=incidence,
        filtered_names=tuple(unpack_str_array(arrays["filtered_names"])),
        filtered_comments=int(meta["filtered_comments"]),
        n_live_comments=int(meta["n_live_comments"]),
        nbytes=_tree_nbytes(arrays),
    )


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
    filtered: set[str] = set()
    filtered_comments = 0
    n_live = 0
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
        filtered.update(partial.filtered_names)
        filtered_comments += partial.filtered_comments
        n_live += partial.n_live_comments
        nbytes += partial.nbytes
    return MergedWeights(
        n_shards=n_shards,
        pair_weights=pair_weights,
        page_counts=page_counts,
        incidence=incidence,
        filtered_names=tuple(sorted(filtered)),
        filtered_comments=filtered_comments,
        n_live_comments=n_live,
        exchange_bytes=nbytes,
    )
