"""Serialize / rehydrate the full :class:`DetectionEngine` state.

The engine's exactness contract makes its snapshot format small: every
derived store (per-page co-occurrence counts, CI weights, ``P'`` ledger,
thresholded adjacency, triangle scores) is a pure function of the
projector's live corpus, so a generation persists only the irreducible
state —

- both interner key sequences **in id order, including dead ids** (the
  id space's width feeds ``P'`` array sizing, so dropping dead rows
  would change byte-level outputs);
- the live comments, grouped per page in the projector's page insertion
  order, each page's rows in its time-sorted column order (the reload
  sorts rows by time with a stable sort, so the stored order comes back
  bit-for-bit);
- the eviction cutoff and the author-filter bookkeeping (removed names
  in first-seen order — :class:`~repro.graph.filters.FilterReport`
  exposes that order).

Rehydration reloads the projector from those
(:meth:`~repro.projection.incremental.IncrementalProjector.load`, which
recounts every page's co-occurrences in one pass of
:func:`repro.kernels.cooccur_pairs`) and then
reuses the engine's own compaction rebuild path
(:meth:`DetectionEngine._rebuild_from_projector`), which the online
parity tests already pin as query-identical to incrementally maintained
state.  The format (``STATE_FORMAT = 1``) predates the per-comment
counts and does not store them, so generations written by earlier
versions restore unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.store.errors import StoreMismatchError
from repro.util.ids import Interner

__all__ = [
    "config_fingerprint",
    "engine_state_arrays",
    "restore_engine_state",
]

STATE_FORMAT = 1


def config_fingerprint(config) -> dict:
    """The config facts a snapshot's state depends on (mismatch = refuse)."""
    return {
        "window": [config.window.delta1, config.window.delta2],
        "min_triangle_weight": config.min_triangle_weight,
        "min_component_size": config.min_component_size,
        "compute_hypergraph": config.compute_hypergraph,
        "filter_names": sorted(config.author_filter.exact_names),
        "filter_patterns": list(config.author_filter.name_patterns),
    }


def engine_state_arrays(engine) -> tuple[dict, dict]:
    """Flatten a live engine into ``(arrays, meta)`` for a snapshot store."""
    proj = engine.proj
    page_order, users, pages, times = proj.live_rows()
    arrays = {
        "user_keys": np.asarray(list(proj.user_names), dtype=object),
        "page_keys": np.asarray(list(proj.page_names), dtype=object),
        "page_order": page_order,
        "comment_user": users,
        "comment_page": pages,
        "comment_time": times,
        "filtered_names": np.asarray(list(engine._filtered_names), dtype=object),
    }
    meta = {
        "state_format": STATE_FORMAT,
        "fingerprint": config_fingerprint(engine.config),
        "evict_cutoff": engine.evict_cutoff,
        "filtered_comments": engine._filtered_comments,
        "n_comments": engine.n_live_comments,
        "auto_compact": engine.auto_compact,
        "compact_ratio": engine.compact_ratio,
        "compact_min": engine.compact_min,
    }
    return arrays, meta


def restore_engine_state(arrays: dict, meta: dict, config, *, metrics=None):
    """Rebuild a :class:`DetectionEngine` from one snapshot generation.

    *config* must match the fingerprint the snapshot was taken under
    (:class:`StoreMismatchError` otherwise — durability must never
    silently blend two configurations).
    """
    from repro.serve.engine import DetectionEngine

    if meta.get("state_format") != STATE_FORMAT:
        raise StoreMismatchError(
            f"snapshot state format {meta.get('state_format')!r} != {STATE_FORMAT}"
        )
    expected = config_fingerprint(config)
    found = meta.get("fingerprint")
    if found != expected:
        raise StoreMismatchError(
            f"snapshot was taken under a different config: {found} != {expected}"
        )

    engine = DetectionEngine(
        config,
        metrics=metrics,
        auto_compact=bool(meta.get("auto_compact", True)),
        compact_ratio=float(meta.get("compact_ratio", 4.0)),
        compact_min=int(meta.get("compact_min", 1024)),
    )
    proj = engine.proj
    proj.user_names = Interner(arrays["user_keys"].tolist())
    proj.page_names = Interner(arrays["page_keys"].tolist())
    proj.load(
        arrays["page_order"],
        arrays["comment_user"],
        arrays["comment_page"],
        arrays["comment_time"],
    )

    cutoff = meta.get("evict_cutoff")
    engine.evict_cutoff = int(cutoff) if cutoff is not None else None
    filtered = [str(name) for name in arrays["filtered_names"].tolist()]
    engine._filtered_names = {name: None for name in filtered}
    engine._filter_cache = {name: True for name in filtered}
    engine._filtered_comments = int(meta.get("filtered_comments", 0))
    engine._rebuild_from_projector()
    return engine
