"""The ``jan2020-layers`` corpus: generation, seeding, ndjson, event stream.

The program under test only ever sees what this module writes: an ndjson
file (batch path) or the ``(author, page, created_utc)`` events parsed
back from it (serve path).
"""

from __future__ import annotations

from pathlib import Path

from repro.datagen import RedditDatasetBuilder
from repro.graph.io import read_comments_ndjson, write_comments_ndjson

from benchmarks.e2e.spec import DATAGEN_SEED

__all__ = ["build_rows", "write_corpus", "load_events", "probe_bot"]

#: 2020-01-01T00:00:00Z — the generator counts seconds from the month start.
_JAN_2020 = 1_577_836_800


def build_rows(scale: float, seed: int) -> tuple[list[dict], dict[str, list[str]]]:
    """Pushshift rows in time order plus the planted-net membership.

    ``seed`` salts every page id (so page-hash shard placement and id
    strings differ per seed) and shifts the clock by whole hours; the
    co-action structure — and therefore the work — is the same for every
    seed, which is what lets ten seeds agree within a few percent.
    """
    dataset = (
        RedditDatasetBuilder.jan2020_like(DATAGEN_SEED, scale)
        .with_link_spam_botnet()
        .with_hashtag_brigade()
        .with_copypasta_botnet()
        .with_layer_noise()
        .build()
    )
    salt = f"s{seed}"
    shift = _JAN_2020 + 3600 * (seed % 1000)
    rows = []
    for record in dataset.records:
        row = record.to_pushshift_dict()
        row["link_id"] += salt
        row["created_utc"] += shift
        rows.append(row)
    truth = {
        name: sorted(members) for name, members in dataset.truth.botnets.items()
    }
    return rows, truth


def write_corpus(path: Path, scale: float, seed: int) -> tuple[int, dict[str, list[str]]]:
    """Generate the corpus and write it as ndjson; returns (rows, truth)."""
    rows, truth = build_rows(scale, seed)
    return write_comments_ndjson(path, rows), truth


def load_events(path: Path) -> list[tuple[str, str, int]]:
    """The serve stream: the file's records as time-sorted events."""
    events = [
        (rec["author"], rec["link_id"], int(rec["created_utc"]))
        for rec in read_comments_ndjson(path)
    ]
    events.sort(key=lambda event: event[2])
    return events


def probe_bot(truth: dict[str, list[str]]) -> str:
    """The planted account the analyst asks about.

    The same for every seed: what a ``/user`` or ``/component`` question
    costs depends on the account's component, so a seeded choice would make
    the work differ from run to run.  The restream net is live in every
    3-day window of the month.
    """
    return truth["restream"][0]
