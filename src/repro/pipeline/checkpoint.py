"""Stage-level checkpointing for pipeline runs.

A :class:`PipelineCheckpoint` is a directory that accumulates the expensive
intermediate artifacts of one framework run, so a run interrupted by a
worker death (or the driver itself dying) can be re-invoked with
``resume_from=`` and pay only for the stages that had not completed:

- ``manifest.json`` — format version, the config fingerprint the artifacts
  were produced under, which stages have completed, and the projection
  stats (restored verbatim on resume so a resumed result is
  element-for-element identical to an uninterrupted one);
- ``ci.npz`` — the full CI graph (edge list + ``P'`` ledger + author
  names), written after Step 1;
- ``ci_thr.npz`` — the thresholded edge list, written after Step 2's
  threshold (cheap to recompute, but persisting it keeps the on-disk
  bundle self-describing and lets external tools consume it);
- ``triangles.npz`` — the canonical triangle survey plus ``T`` scores,
  written after Step 2's survey.

Resume refuses to mix artifacts across configs: the manifest records the
window, cutoff, bucket width and author filter, and a mismatch raises
:class:`CheckpointMismatchError` rather than silently blending two runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.projection.ci_graph import CommonInteractionGraph
from repro.projection.window import TimeWindow
from repro.store.engine_state import config_fingerprint
from repro.tripoll.survey import TriangleSet
from repro.util.ids import Interner
from repro.util.io import atomic_write_text

__all__ = ["CheckpointMismatchError", "PipelineCheckpoint"]

_FORMAT = 1
_STAGES = ("ci", "ci_thr", "triangles")


class CheckpointMismatchError(RuntimeError):
    """A resume was attempted against artifacts from a different config."""


class PipelineCheckpoint:
    """One checkpoint directory (see module docstring for the layout)."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest: dict = {
            "format": _FORMAT,
            "config": {},
            "stages": {},
            "stats": {},
        }

    # -- manifest -----------------------------------------------------------
    @property
    def _manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def _config_fingerprint(self, config) -> dict:
        # The author filter decides which comments Step 1 projects; its
        # entries are the store's, so both formats key on the same facts.
        store = config_fingerprint(config)
        return {
            "window": store["window"],
            "min_triangle_weight": store["min_triangle_weight"],
            "time_bucket_width": config.time_bucket_width,
            "filter_names": store["filter_names"],
            "filter_patterns": store["filter_patterns"],
        }

    def begin(self, config) -> None:
        """Start a *fresh* run: record the config, clear stage flags."""
        self._manifest = {
            "format": _FORMAT,
            "config": self._config_fingerprint(config),
            "stages": {},
            "stats": {},
        }
        self._flush()

    def resume(self, config) -> None:
        """Load an existing manifest and validate it against *config*."""
        if not self._manifest_path.exists():
            raise CheckpointMismatchError(
                f"no checkpoint manifest at {self._manifest_path}"
            )
        self._manifest = json.loads(
            self._manifest_path.read_text(encoding="utf-8")
        )
        if self._manifest.get("format") != _FORMAT:
            raise CheckpointMismatchError(
                f"checkpoint format {self._manifest.get('format')!r} != {_FORMAT}"
            )
        expected = self._config_fingerprint(config)
        found = self._manifest.get("config", {})
        if found != expected:
            raise CheckpointMismatchError(
                "checkpoint was written under a different config: "
                f"{found} != {expected}"
            )

    def _flush(self) -> None:
        # Atomic: a crash mid-flush must leave the previous manifest, not
        # a truncated one that poisons every later resume.
        atomic_write_text(
            self._manifest_path, json.dumps(self._manifest, indent=2)
        )

    def has(self, stage: str) -> bool:
        """Whether *stage*'s artifact completed (and its file survives)."""
        if stage not in _STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {_STAGES}")
        return bool(self._manifest["stages"].get(stage)) and (
            self.directory / f"{stage}.npz"
        ).exists()

    def completed_stages(self) -> tuple[str, ...]:
        """The stages whose artifacts are present, in pipeline order."""
        return tuple(s for s in _STAGES if self.has(s))

    def _mark(self, stage: str) -> None:
        self._manifest["stages"][stage] = True
        self._flush()

    # -- projection stats (restored so resumed results match exactly) ------
    def save_stats(self, stats: dict) -> None:
        """Record the projection stage's integer stats in the manifest."""
        self._manifest["stats"] = {k: int(v) for k, v in stats.items()}
        self._flush()

    def load_stats(self) -> dict:
        """The stats recorded by :meth:`save_stats` (empty dict if none)."""
        return dict(self._manifest.get("stats", {}))

    # -- Step 1: CI graph ---------------------------------------------------
    def save_ci(self, ci: CommonInteractionGraph) -> None:
        """Persist the Step 1 CI graph (edges, ``P'`` ledger, names)."""
        names = (
            np.asarray([str(k) for k in ci.user_names], dtype=object)
            if ci.user_names is not None
            else np.asarray([], dtype=object)
        )
        np.savez_compressed(
            self.directory / "ci.npz",
            src=ci.edges.src,
            dst=ci.edges.dst,
            weight=ci.edges.weight,
            page_counts=ci.page_counts,
            window=np.asarray([ci.window.delta1, ci.window.delta2]),
            user_names=names,
            has_user_names=np.asarray(ci.user_names is not None),
        )
        self._mark("ci")

    def load_ci(self) -> CommonInteractionGraph:
        """Rehydrate the CI graph written by :meth:`save_ci`."""
        from repro.graph.edgelist import EdgeList

        with np.load(self.directory / "ci.npz", allow_pickle=True) as data:
            names = (
                Interner(data["user_names"].tolist())
                if bool(data["has_user_names"])
                else None
            )
            d1, d2 = (int(v) for v in data["window"])
            return CommonInteractionGraph(
                edges=EdgeList(data["src"], data["dst"], data["weight"]),
                page_counts=data["page_counts"],
                window=TimeWindow(d1, d2),
                user_names=names,
            )

    # -- Step 2a: thresholded edges ----------------------------------------
    def save_thresholded(self, ci_thr: CommonInteractionGraph) -> None:
        """Persist the cutoff-thresholded edge list (Step 2a)."""
        from repro.graph.io import save_edgelist_npz

        save_edgelist_npz(self.directory / "ci_thr.npz", ci_thr.edges)
        self._mark("ci_thr")

    def load_thresholded(
        self, ci: CommonInteractionGraph
    ) -> CommonInteractionGraph:
        """Rehydrate the thresholded view (``P''``/names come from *ci*)."""
        from repro.graph.io import load_edgelist_npz

        return CommonInteractionGraph(
            edges=load_edgelist_npz(self.directory / "ci_thr.npz"),
            page_counts=ci.page_counts,
            window=ci.window,
            user_names=ci.user_names,
        )

    # -- Step 2b: triangle survey -------------------------------------------
    def save_triangles(self, triangles: TriangleSet, t_scores: np.ndarray) -> None:
        """Persist the canonical triangle survey plus ``T`` scores (Step 2b)."""
        np.savez_compressed(
            self.directory / "triangles.npz",
            a=triangles.a,
            b=triangles.b,
            c=triangles.c,
            w_ab=triangles.w_ab,
            w_ac=triangles.w_ac,
            w_bc=triangles.w_bc,
            t_scores=np.asarray(t_scores, dtype=np.float64),
        )
        self._mark("triangles")

    def load_triangles(self) -> tuple[TriangleSet, np.ndarray]:
        """Rehydrate the survey written by :meth:`save_triangles`."""
        with np.load(self.directory / "triangles.npz") as data:
            triangles = TriangleSet(
                data["a"], data["b"], data["c"],
                data["w_ab"], data["w_ac"], data["w_bc"],
            )
            return triangles, data["t_scores"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done = ",".join(self.completed_stages()) or "none"
        return f"PipelineCheckpoint({str(self.directory)!r}, completed={done})"
