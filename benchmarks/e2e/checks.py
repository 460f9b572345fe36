"""Oracles: result digests, planted-net scoring, committed expectations."""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping

import numpy as np

from repro.datagen import GroundTruth, score_detection
from repro.pipeline.layers import MultiLayerResult

from benchmarks.e2e.spec import EXPECTED_PATH

__all__ = [
    "LayerParts",
    "digest_parts",
    "result_parts",
    "observe",
    "expected_for",
    "jsonable",
]

#: What one layer contributes to the digest: ``(ci, ci_thresholded,
#: triangles, t_scores, triplet_metrics, components)``.
LayerParts = tuple


def result_parts(result: MultiLayerResult) -> dict[str, LayerParts]:
    """The digest inputs of an untraced ``run_ndjson`` result."""
    return {
        name: (
            res.ci,
            res.ci_thresholded,
            res.triangles,
            res.t_scores,
            res.triplet_metrics,
            res.components,
        )
        for name, res in result.layers.items()
    }


def digest_parts(
    layers: Mapping[str, LayerParts], fused, fused_components: Iterable[list[str]]
) -> str:
    """SHA-256 over every array and ranked list a run produces.

    Arrays are hashed as raw bytes (dtype and order included), floats of
    the fused graph as ``float.hex``, so two digests are equal only when
    the results are bit-identical.  Ids are interned in first-appearance
    order of the input file, which no seed changes.
    """
    h = hashlib.sha256()

    def feed(*arrays: np.ndarray) -> None:
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            h.update(str((arr.dtype.str, arr.shape)).encode())
            h.update(arr.tobytes())

    for name in sorted(layers):
        ci, ci_thr, tri, t_vals, metrics, components = layers[name]
        h.update(name.encode())
        feed(ci.edges.src, ci.edges.dst, ci.edges.weight, ci.page_counts)
        feed(ci_thr.edges.src, ci_thr.edges.dst, ci_thr.edges.weight)
        feed(tri.a, tri.b, tri.c, tri.w_ab, tri.w_ac, tri.w_bc, t_vals)
        if metrics is not None:
            feed(metrics.w_xyz, metrics.p_sum, metrics.c_scores)
        h.update(repr([c.member_names for c in components]).encode())
    for edge in fused.edges:
        h.update(
            repr((edge.a, edge.b, float(edge.score).hex(), edge.per_layer)).encode()
        )
    h.update(repr(list(fused_components)).encode())
    return h.hexdigest()


def observe(
    layers: Mapping[str, LayerParts],
    fused,
    fused_components: list[list[str]],
    truth: Mapping[str, list[str]],
) -> dict:
    """Everything a batch rep is checked on, in the committed shape."""
    labels = GroundTruth()
    for name, members in truth.items():
        labels.add(name, members)
    scores = score_detection(labels, fused_components)
    return {
        "digest": digest_parts(layers, fused, fused_components),
        "n_triangles": {
            name: int(layers[name][2].n_triangles) for name in sorted(layers)
        },
        "scores": {
            name: [round(s.precision, 6), round(s.recall, 6)]
            for name, s in sorted(scores.items())
        },
    }


def expected_for(profile: str, spec: Mapping) -> dict | None:
    """The committed observation for a batch corpus, if one was recorded."""
    if not EXPECTED_PATH.exists():
        return None
    table = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return table.get(profile, {}).get(f"{spec['scale']}:{spec['cutoff']}")


def jsonable(value):
    """A value as it reads after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(value))
