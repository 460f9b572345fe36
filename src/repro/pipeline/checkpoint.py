"""Stage-level checkpointing for pipeline runs.

A :class:`PipelineCheckpoint` lets a run interrupted by a worker death
(or the driver dying) be re-invoked with ``resume_from=`` and pay only
for the stages that had not completed.  Its directory is a
:class:`~repro.store.snapshots.SnapshotStore`: generation 0 is the run's
header (written by ``begin``) and stage *k* is generation *k* — 1 ``ci``
(edges, ``P'`` ledger, author names, and the projection stats in its
meta, so a resumed result matches an uninterrupted one exactly), 2
``ci_thr`` (the thresholded edges), 3 ``triangles`` (the canonical
survey plus ``T`` scores).  Each generation is atomic, checksummed and
stamped with the config fingerprint.  ``resume`` loads generations in
order and stops at the first one missing or damaged: that stage and all
later ones are recomputed, never loaded.  A fingerprint mismatch, or a
directory with no generations, raises :class:`CheckpointMismatchError`.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.pipeline.config import PipelineConfig
from repro.projection.ci_graph import CommonInteractionGraph
from repro.projection.window import TimeWindow
from repro.store.engine_state import config_fingerprint
from repro.store.errors import CorruptSnapshotError
from repro.store.snapshots import SnapshotStore
from repro.tripoll.survey import TriangleSet
from repro.util.ids import Interner

__all__ = ["CheckpointMismatchError", "PipelineCheckpoint"]

_STAGES = ("ci", "ci_thr", "triangles")  # generations 1, 2, 3
_EDGE_FIELDS = ("src", "dst", "weight")
_TRIANGLE_FIELDS = ("a", "b", "c", "w_ab", "w_ac", "w_bc")


class CheckpointMismatchError(RuntimeError):
    """A resume was attempted against artifacts from a different config."""


class PipelineCheckpoint:
    """One checkpoint directory (see module docstring for the layout)."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._store = SnapshotStore(self.directory, keep=len(_STAGES) + 1)
        self._fingerprint: dict = {}
        self._stats: dict[str, int] = {}
        # Stage -> arrays of each generation resumed or saved so far.
        self._stages: dict[str, dict[str, np.ndarray]] = {}

    @staticmethod
    def _config_fingerprint(config: PipelineConfig) -> dict:
        # The author filter decides which comments Step 1 projects; its
        # entries are the store's, so both formats key on the same facts.
        store = config_fingerprint(config)
        keys = ("window", "min_triangle_weight", "filter_names", "filter_patterns")
        return {"time_bucket_width": config.time_bucket_width,
                **{k: store[k] for k in keys}}

    def begin(self, config: PipelineConfig) -> None:
        """Start a *fresh* run: drop every generation, write the header."""
        self._fingerprint = self._config_fingerprint(config)
        self._stages = {}
        self._store.truncate()
        self._store.save(0, {}, {"fingerprint": self._fingerprint})

    def resume(self, config: PipelineConfig) -> None:
        """Load the intact stage prefix and validate it against *config*."""
        if not self._store.generations():
            raise CheckpointMismatchError(
                f"no checkpoint generations in {self.directory}"
            )
        self._fingerprint = self._config_fingerprint(config)
        self._stages = {}
        intact = -1
        for seq in range(len(_STAGES) + 1):
            try:
                arrays, meta = self._store.load(seq)
            except CorruptSnapshotError:
                break
            if meta.get("fingerprint") != self._fingerprint:
                raise CheckpointMismatchError(
                    "checkpoint was written under a different config: "
                    f"{meta.get('fingerprint')} != {self._fingerprint}"
                )
            if seq:
                self._stages[_STAGES[seq - 1]] = arrays
                self._stats = meta.get("stats", self._stats)
            intact = seq
        if intact < 0:  # damaged header: nothing here can be trusted
            self.begin(config)
        else:
            # Stages past the first gap are recomputed; their old
            # generations must not outlive the ones rewritten before them.
            self._store.truncate(intact)

    def has(self, stage: str) -> bool:
        """Whether *stage*'s generation was resumed intact (or saved)."""
        if stage not in _STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {_STAGES}")
        return stage in self._stages

    def completed_stages(self) -> tuple[str, ...]:
        """The stages whose generations are intact, in pipeline order."""
        return tuple(s for s in _STAGES if s in self._stages)

    def _save(self, stage: str, arrays: dict[str, np.ndarray], **meta: object) -> None:
        meta["fingerprint"] = self._fingerprint
        self._store.save(_STAGES.index(stage) + 1, arrays, meta)
        self._stages[stage] = arrays

    def save_stats(self, stats: dict[str, int]) -> None:
        """Record the projection stats; :meth:`save_ci` persists them, so
        call this first."""
        self._stats = {k: int(v) for k, v in stats.items()}

    def load_stats(self) -> dict[str, int]:
        """The stats recorded by :meth:`save_stats` (empty dict if none)."""
        return dict(self._stats)

    def save_ci(self, ci: CommonInteractionGraph) -> None:
        """Persist the Step 1 CI graph (edges, ``P'`` ledger, names)."""
        arrays = {f: getattr(ci.edges, f) for f in _EDGE_FIELDS}
        arrays["page_counts"] = ci.page_counts
        arrays["window"] = np.asarray([ci.window.delta1, ci.window.delta2])
        if ci.user_names is not None:
            # Fixed-width unicode, not objects: the payload holds no pickle.
            arrays["user_names"] = np.asarray([str(k) for k in ci.user_names], dtype=str)
        self._save("ci", arrays, stats=self._stats)

    def load_ci(self) -> CommonInteractionGraph:
        """Rehydrate the CI graph written by :meth:`save_ci`."""
        data = self._stages["ci"]
        names = data.get("user_names")
        d1, d2 = (int(v) for v in data["window"])
        return CommonInteractionGraph(
            edges=EdgeList(*(data[f] for f in _EDGE_FIELDS)),
            page_counts=data["page_counts"],
            window=TimeWindow(d1, d2),
            user_names=Interner(names.tolist()) if names is not None else None,
        )

    def save_thresholded(self, ci_thr: CommonInteractionGraph) -> None:
        """Persist the cutoff-thresholded edge list (Step 2a)."""
        self._save("ci_thr", {f: getattr(ci_thr.edges, f) for f in _EDGE_FIELDS})

    def load_thresholded(self, ci: CommonInteractionGraph) -> CommonInteractionGraph:
        """Rehydrate the thresholded view (``P''``/names come from *ci*)."""
        data = self._stages["ci_thr"]
        return replace(ci, edges=EdgeList(*(data[f] for f in _EDGE_FIELDS)))

    def save_triangles(self, triangles: TriangleSet, t_scores: np.ndarray) -> None:
        """Persist the canonical triangle survey plus ``T`` scores (Step 2b)."""
        arrays = {f: getattr(triangles, f) for f in _TRIANGLE_FIELDS}
        arrays["t_scores"] = np.asarray(t_scores, dtype=np.float64)
        self._save("triangles", arrays)

    def load_triangles(self) -> tuple[TriangleSet, np.ndarray]:
        """Rehydrate the survey written by :meth:`save_triangles`."""
        data = self._stages["triangles"]
        return TriangleSet(*(data[f] for f in _TRIANGLE_FIELDS)), data["t_scores"]
