"""Claim exchange: page-hash ingest shards → one long-lived exact aggregate.

Under the sharded tier's **page-hash ingest mode** each shard consumes
only the events whose page hashes to it
(:func:`repro.serve.ingest.page_shard_of`), so no shard holds the full
live window.  What makes answers still exact is page locality: a page's
co-comment pairs are computable from that page's timeline alone, and
pages are **disjoint** across shards, so every per-page contribution to
the CI state lives on exactly one shard and the global state is a plain
sum of per-shard ledgers:

- ``w'`` pair weights (eq. 1) — per-page pair contributions, summed by
  user-name pair;
- ``P'`` ledgers — distinct-page counts per user, summed;
- the live ``(user, page)`` incidence (the ``w_xyz``/``p_x`` substrate
  of eqs. 2–3) — page keys never collide across shards.

The aggregate is one long-lived name-keyed
:class:`~repro.serve.engine.ScoringCore` that only ever hears what
changed.  An exchange sends every shard one **claim** over the
supervisor pipe that already carries its events: the
``(epoch, generation)`` of the last reply from that shard the aggregate
applied.  The shard's engine (:meth:`DetectionEngine.claim
<repro.serve.engine.DetectionEngine.claim>`) answers with the ledger
entries it moved since that reply, at their current values — or, when
the claim does not name its last reply (first claim, a restarted child
with a new epoch, a reply that was lost or never applied), with its full
state, which is the change from empty.  :func:`partial_bytes` pickles
that answer child-side and :func:`load_partial` rebuilds it.

:class:`ExchangeAggregate` keeps, per shard, the ledgers as of the last
applied reply.  :meth:`ExchangeAggregate.absorb` turns a gather into
summed deltas and hands them to :meth:`ScoringCore.merge
<repro.serve.engine.ScoringCore.merge>`, which moves the core's ledgers
and settles triangles and scores with the same method the engine's own
updates use — "aggregate ≡ engine" by construction.  A gather must cover
every shard (else :class:`PartialExchangeError`, and nothing is
applied); a reply that does not continue its shard's last applied one —
delivered twice, out of order, or past a gap — is ignored, and the next
claim, naming a generation the shard has moved past, gets the full state.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Iterable

from repro.pipeline.config import PipelineConfig
from repro.serve.engine import DetectionEngine, ScoringCore

__all__ = [
    "ExchangeAggregate",
    "ExchangeStats",
    "PartialExchangeError",
    "PartialWeights",
    "load_partial",
    "partial_bytes",
]


class PartialExchangeError(RuntimeError):
    """A gather of shard claims is structurally incomplete or invalid.

    Raised when the gathered partials do not cover every ingest shard or
    disagree on the shard count — aggregating anyway would silently
    under- or double-count weights.
    """


@dataclass(frozen=True)
class PartialWeights:
    """One ingest shard's answer to a claim.

    ``since`` is the generation the answer builds on (``None`` = full
    state); ``generation`` is the one it brings its claimant to.  The
    ledgers hold the moved entries' current values, ``0`` for an entry
    that is gone.
    """

    shard_id: int
    n_shards: int
    epoch: str
    since: int | None
    generation: int
    pair_weights: dict[tuple[str, str], int]
    page_counts: dict[str, int]
    incidence: dict[str, dict[str, int]]
    #: Pickled bytes this partial occupied on the pipe (transport cost).
    nbytes: int = 0

    @property
    def full(self) -> bool:
        """Whether this is a shard's full state rather than a delta."""
        return self.since is None

    @property
    def n_entries(self) -> int:
        """Ledger entries carried."""
        return (
            len(self.pair_weights)
            + len(self.page_counts)
            + sum(len(pages) for pages in self.incidence.values())
        )


@dataclass(frozen=True)
class ExchangeStats:
    """What one :meth:`ExchangeAggregate.absorb` received and applied."""

    resyncs: int
    entries: int
    nbytes: int


def partial_bytes(
    engine: DetectionEngine,
    shard_id: int,
    n_shards: int,
    epoch: str | None = None,
    since: int | None = None,
) -> bytes:
    """Child-side half of the exchange: the engine's claim answer, pickled.

    The ledgers go out in the engine's own order, unsorted: the
    aggregate ranks, tie-breaks and lists by name, never by dict order.
    """
    epoch, since, generation, (pairs, counts, incidence) = engine.claim(
        epoch, since
    )
    return pickle.dumps(
        (int(shard_id), int(n_shards), epoch, since, generation, pairs, counts,
         incidence),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_partial(blob: bytes) -> PartialWeights:
    """Aggregator-side half: rebuild the partial :func:`partial_bytes` sent."""
    return PartialWeights(*pickle.loads(blob), nbytes=len(blob))


class _ShardBook:
    """One shard's ledgers as of its last applied claim answer."""

    __slots__ = ("epoch", "generation", "ledgers")

    def __init__(self) -> None:
        self.epoch: str | None = None
        self.generation: int | None = None
        # w' by name pair, P' by name, live count by (user, page).
        self.ledgers: tuple[dict, dict, dict] = ({}, {}, {})


class ExchangeAggregate:
    """The parent half: per-shard books and the core they sum into.

    Parameters
    ----------
    config:
        Pipeline configuration the aggregate :class:`ScoringCore`
        thresholds and scores with.
    n_shards:
        Ingest shards a gather must cover.
    """

    def __init__(self, config: PipelineConfig, n_shards: int) -> None:
        self.n_shards = int(n_shards)
        self.core = ScoringCore(config)
        self._books = [_ShardBook() for _ in range(self.n_shards)]

    def claim_args(self, shard_id: int) -> tuple[str | None, int | None]:
        """``(epoch, generation)`` of shard *shard_id*'s last applied answer."""
        book = self._books[shard_id]
        return book.epoch, book.generation

    def absorb(self, partials: Iterable[PartialWeights]) -> ExchangeStats:
        """Apply one gather of claim answers to the books and the core.

        Raises :class:`PartialExchangeError` (applying nothing) when a
        partial is out of range, built for another shard count, or some
        shard sent none: weights are additive, so a missing shard would
        silently under-count.  A delta that does not continue its
        shard's last applied answer is ignored; a full state always
        applies (it replaces the shard's book, whatever came before).
        """
        partials = list(partials)
        n = self.n_shards
        for partial in partials:
            if partial.n_shards != n:
                raise PartialExchangeError(
                    f"partial from shard {partial.shard_id} was built for "
                    f"{partial.n_shards} shard(s), aggregating for {n}"
                )
            if not 0 <= partial.shard_id < n:
                raise PartialExchangeError(
                    f"shard id {partial.shard_id} out of range for {n} shard(s)"
                )
        seen = {partial.shard_id for partial in partials}
        missing = [sid for sid in range(n) if sid not in seen]
        if missing:
            raise PartialExchangeError(
                f"exchange incomplete: no partial from shard(s) {missing} — "
                "aggregating would under-count pair weights"
            )
        deltas: tuple[dict, dict, dict] = ({}, {}, {})
        resyncs = 0
        for partial in partials:
            book = self._books[partial.shard_id]
            if partial.full:
                resyncs += 1
            elif (partial.epoch, partial.since) != (book.epoch, book.generation):
                continue  # delivered twice, out of order or past a gap
            for mine, theirs, delta in zip(book.ledgers, _flat(partial), deltas):
                if partial.full:
                    # What the shard reported before and does not name now
                    # is gone.
                    _move(mine, {k: 0 for k in mine if k not in theirs}, delta)
                _move(mine, theirs, delta)
            book.epoch, book.generation = partial.epoch, partial.generation
        self.core.merge(*deltas)
        return ExchangeStats(
            resyncs=resyncs,
            entries=sum(partial.n_entries for partial in partials),
            nbytes=sum(partial.nbytes for partial in partials),
        )


def _flat(partial: PartialWeights) -> tuple[dict, dict, dict]:
    """A partial's ledgers as the books key them."""
    cells = {
        (user, page): count
        for user, pages in partial.incidence.items()
        for page, count in pages.items()
    }
    return partial.pair_weights, partial.page_counts, cells


def _move(mine: dict, values: dict, delta: dict) -> None:
    """Set *mine*'s entries to *values* (``0`` drops), adding each net
    change into *delta*."""
    for key, value in values.items():
        old = mine.get(key, 0)
        if value == old:
            continue
        delta[key] = delta.get(key, 0) + value - old
        if value:
            mine[key] = value
        else:
            del mine[key]
