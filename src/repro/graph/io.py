"""Dataset and graph I/O.

Two formats:

- **ndjson comment records** — one JSON object per line with the Pushshift
  field names the paper's loader consumed (``author``, ``link_id``,
  ``created_utc``, plus optional ``subreddit`` / ``body``), so a user with
  a real Pushshift dump can feed it to this library unchanged.
- **npz bundles** — compact numpy round-tripping for BTMs and edge lists,
  used by the benchmark harness to cache generated corpora.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.edgelist import EdgeList
from repro.util.ids import Interner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, see btms_from_ndjson
    from repro.actions.base import ActionKey

__all__ = [
    "IngestStats",
    "write_comments_ndjson",
    "read_comments_ndjson",
    "btm_from_ndjson",
    "btms_from_ndjson",
    "save_btm_npz",
    "load_btm_npz",
    "save_edgelist_npz",
    "load_edgelist_npz",
]


@dataclass
class IngestStats:
    """Accounting for one lenient ndjson read (``errors="skip"``).

    Every loader here and :func:`repro.serve.ingest.iter_ndjson_events`
    fill one in as the input streams.

    Attributes
    ----------
    total_lines:
        Non-blank lines seen.
    malformed:
        Lines dropped: unparseable JSON and, except in
        :func:`read_comments_ndjson`, records whose ``author`` is missing,
        null or empty or whose ``created_utc`` is not an integer.  The
        single-layer page loads (:func:`btm_from_ndjson` without
        ``action_key=``, the serve stream) also drop records with no
        ``link_id`` value; the layer-aware loads count a skip instead.
    quarantined_to:
        Path the dropped lines were copied to, if one was requested.
    layer_skips:
        Per-layer counts of *well-formed* records that performed no action
        on the layer (an ordinary comment with no URL does not co-link),
        filled by the layer-aware loads (:func:`btms_from_ndjson`,
        :func:`btm_from_ndjson` with ``action_key=``).  Records skipped on
        every layer also go to the quarantine sidecar.
    """

    total_lines: int = 0
    malformed: int = 0
    quarantined_to: str | None = None
    layer_skips: dict[str, int] = field(default_factory=dict)

    @property
    def kept(self) -> int:
        """Lines that survived."""
        return self.total_lines - self.malformed

    def skip_count(self, layer: str) -> int:
        """Skips recorded for *layer* (0 when the layer never loaded)."""
        return self.layer_skips.get(layer, 0)


def write_comments_ndjson(
    path: str | Path, comments: Iterable[dict]
) -> int:
    """Write comment dicts as one-JSON-object-per-line; returns line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in comments:
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


def _scan(
    source: Any,
    layers: "Sequence[tuple[ActionKey, list]] | None",
    errors: str = "raise",
    quarantine: str | Path | None = None,
    stats: IngestStats | None = None,
    *,
    strict: bool = False,
    decoded: bool = False,
) -> Iterator[Any]:
    """The one comment loop: decode, check, quarantine and fan out.

    *source* is an ndjson path or lines, or record dicts when *decoded*.
    With ``layers=None`` each record is yielded unchecked.  Otherwise a
    record needs an ``author`` that is not null or empty and an integer
    ``created_utc``; each ``(key, sink)`` in *layers* then gets the
    record's ``(author, value, created_utc)`` triples before it is
    yielded.  A record with no action on any layer is malformed when
    *strict* (single-layer loads) and is otherwise a layer skip, copied
    to the sidecar.  The sidecar gets every reject as its raw line.
    """
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    stats = stats if stats is not None else IngestStats()
    skips = stats.layer_skips
    fan_out = [(key.extract, sink.append, key.name) for key, sink in layers or ()]
    if not strict:
        for _, _, name in fan_out:
            skips.setdefault(name, 0)
    with ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            source = stack.enter_context(open(source, "r", encoding="utf-8"))
        where = getattr(source, "name", "<input>")
        sidecar = None

        def reject(line: Any, line_no: int, problem: str, malformed: bool = True) -> None:
            nonlocal sidecar
            if malformed:
                if errors == "raise":
                    raise ValueError(f"{where}:{line_no}: {problem}")
                stats.malformed += 1
            if quarantine is not None:
                if sidecar is None:
                    sidecar = stack.enter_context(open(quarantine, "w", encoding="utf-8"))
                    stats.quarantined_to = str(quarantine)
                # Flushed per record: the sidecar is forensic evidence, and
                # a crash mid-stream must not cost the rejects before it.
                sidecar.write(line + "\n")
                sidecar.flush()

        for line_no, line in enumerate(source, 1):
            if not decoded:
                line = line.strip()
                if not line:
                    continue
            stats.total_lines += 1
            try:
                rec = line if decoded else json.loads(line)
            except json.JSONDecodeError:
                reject(line, line_no, "malformed JSON record")
                continue
            if layers is None:
                yield rec
                continue
            try:
                author = rec["author"]
                created = int(rec["created_utc"])
                if author is None or author == "":
                    raise ValueError("null or empty 'author'")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                reject(line, line_no, f"record missing/invalid field: {exc!r}")
                continue
            acted = False
            for extract, append, name in fan_out:
                values = extract(rec)
                if values:
                    acted = True
                    for value in values:
                        append((author, value, created))
                elif not strict:
                    skips[name] += 1
            if not acted:
                fields = [f for key, _ in layers for f in key.fields]
                reject(line, line_no, f"record missing/invalid field: no value in {fields}", strict)
                continue
            yield rec


def _page_triples(source: Any, **scan: Any) -> Iterator[tuple[str, str, int]]:
    """Stream ``(author, page, created_utc)``: the single-layer page :func:`_scan`."""
    from repro.actions.base import get_action_key

    sink: list[tuple[str, str, int]] = []
    for _ in _scan(source, [(get_action_key("page"), sink)], strict=True, **scan):
        yield from sink
        sink.clear()


def _layer_btms(
    source: Any, keys: "Sequence[ActionKey]", **scan: Any
) -> dict[str, BipartiteTemporalMultigraph]:
    """One BTM per key from one :func:`_scan` pass (keyword arguments go to it)."""
    layers: list[tuple[ActionKey, list]] = [(key, []) for key in keys]
    for _ in _scan(source, layers, **scan):
        pass
    return {key.name: BipartiteTemporalMultigraph.from_comments(rows) for key, rows in layers}


def read_comments_ndjson(
    path: "str | Path | Iterable[str]",
    errors: str = "raise",
    *,
    quarantine: str | Path | None = None,
    stats: IngestStats | None = None,
) -> Iterator[dict]:
    """Stream decoded records from an ndjson path or lines (blank lines skipped).

    ``errors="raise"`` (default) aborts on the first unparseable line with
    a :class:`ValueError` naming it; ``"skip"`` drops it, counts it in
    *stats* and streams on — one corrupt record in a multi-GB Pushshift
    dump should cost one record, not the run.  *quarantine* (with
    ``"skip"``) is a sidecar file, created on the first reject and
    truncated per read, that gets every dropped raw line for offline
    inspection or repair.
    """
    return _scan(path, None, errors, quarantine, stats)


def btm_from_ndjson(
    path: str | Path,
    errors: str = "raise",
    *,
    quarantine: str | Path | None = None,
    stats: IngestStats | None = None,
    action_key: "str | ActionKey | None" = None,
) -> BipartiteTemporalMultigraph:
    """Load a BTM from Pushshift-style ndjson comment records.

    Each record needs ``author``, ``link_id`` (the page at the root of the
    comment tree — paper §2.1.1 treats every comment as an interaction with
    that root page), and ``created_utc``; a null or empty value counts as
    missing.  Other records are malformed: with ``errors="skip"`` they are
    dropped, counted and optionally quarantined instead of aborting the
    load (see :func:`read_comments_ndjson`).  The BTM equals
    ``btms_from_ndjson(path, ["page"])["page"]``, which counts a record
    without a page as a layer skip instead.  With ``action_key=`` (a layer
    name or :class:`~repro.actions.base.ActionKey`) this is
    ``btms_from_ndjson(path, [action_key])[name]``, skips and all.
    """
    from repro.actions.base import get_action_key

    key = get_action_key("page" if action_key is None else action_key)
    return _layer_btms(
        path, [key], errors=errors, quarantine=quarantine, stats=stats,
        strict=action_key is None,
    )[key.name]


def btms_from_ndjson(
    path: str | Path,
    layers: "Iterable[str | ActionKey]",
    errors: str = "raise",
    *,
    quarantine: str | Path | None = None,
    stats: IngestStats | None = None,
) -> dict[str, BipartiteTemporalMultigraph]:
    """Load one BTM per action layer from a single pass over *path*.

    Every record is read once and offered to every requested layer's
    extractor, producing ``{layer name: BTM}`` (keys sorted by layer
    name).  Each layer's BTM interns its own author/action id spaces, so
    projection and triangle machinery run per layer unchanged.

    **Skip semantics**: a well-formed record with no action on a layer —
    no URL for ``link``, no ``link_id`` for ``page`` … — is *skipped on
    that layer* and counted in ``stats.layer_skips[layer]``; it still
    feeds every layer it is active on.  A record skipped on **all**
    layers contributed nothing and goes to the quarantine sidecar, if
    one was requested.  Malformed records (unparseable JSON, missing,
    null or empty ``author``, non-integer ``created_utc``) follow the
    usual ``errors=``/quarantine rules and never reach the extractors.
    """
    from repro.actions.base import resolve_layers

    return _layer_btms(
        path, resolve_layers(list(layers)), errors=errors, quarantine=quarantine, stats=stats
    )


def save_btm_npz(path: str | Path, btm: BipartiteTemporalMultigraph) -> None:
    """Serialize a BTM (arrays + interned names) to an npz bundle."""
    user_names = (
        np.asarray([str(k) for k in btm.user_names], dtype=object)
        if btm.user_names is not None
        else np.asarray([], dtype=object)
    )
    page_names = (
        np.asarray([str(k) for k in btm.page_names], dtype=object)
        if btm.page_names is not None
        else np.asarray([], dtype=object)
    )
    np.savez_compressed(
        path,
        users=btm.users,
        pages=btm.pages,
        times=btm.times,
        user_names=user_names,
        page_names=page_names,
        has_user_names=np.asarray(btm.user_names is not None),
        has_page_names=np.asarray(btm.page_names is not None),
    )


def load_btm_npz(path: str | Path) -> BipartiteTemporalMultigraph:
    """Load a BTM previously written by :func:`save_btm_npz`."""
    with np.load(path, allow_pickle=True) as data:
        user_names = (
            Interner(data["user_names"].tolist())
            if bool(data["has_user_names"])
            else None
        )
        page_names = (
            Interner(data["page_names"].tolist())
            if bool(data["has_page_names"])
            else None
        )
        return BipartiteTemporalMultigraph(
            data["users"], data["pages"], data["times"], user_names, page_names
        )


def save_edgelist_npz(path: str | Path, edges: EdgeList) -> None:
    """Serialize an edge list to an npz bundle."""
    np.savez_compressed(
        path, src=edges.src, dst=edges.dst, weight=edges.weight
    )


def load_edgelist_npz(path: str | Path) -> EdgeList:
    """Load an edge list previously written by :func:`save_edgelist_npz`."""
    with np.load(path) as data:
        return EdgeList(data["src"], data["dst"], data["weight"])
