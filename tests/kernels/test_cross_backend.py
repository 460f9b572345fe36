"""Cross-backend parity property: every engine, randomized corpora.

Runs 50+ randomized BTMs through the full generated registries — each
step's plan on the serial, parallel and YGM executors, the incremental
projector and the bucketed/streaming adapters, every one thin
orchestration over :mod:`repro.kernels` — and asserts bit-for-bit equal
results via the differential harness of :mod:`repro.verify.parity`.
"""

import numpy as np
import pytest

from repro.projection.window import TimeWindow
from repro.verify.parity import (
    default_projection_engines,
    default_triangle_engines,
    default_validation_engines,
    run_parity,
)

pytestmark = pytest.mark.kernels

N_INSTANCES = 52


def random_comments(rng):
    """A small random corpus; occasionally empty or single-page."""
    n_users = int(rng.integers(2, 14))
    n_pages = int(rng.integers(1, 7))
    n_rows = int(rng.integers(0, 70))
    return [
        (
            f"u{int(rng.integers(0, n_users))}",
            f"p{int(rng.integers(0, n_pages))}",
            int(rng.integers(0, 400)),
        )
        for _ in range(n_rows)
    ]


class TestCrossBackendParity:
    @pytest.mark.parametrize("seed", range(N_INSTANCES))
    def test_all_engines_agree_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        comments = random_comments(rng)
        d1 = int(rng.integers(0, 2)) * int(rng.integers(0, 30))
        window = TimeWindow(d1, d1 + int(rng.integers(1, 150)))
        min_w = int(rng.integers(0, 3))
        report = run_parity(
            comments, window, min_edge_weight=min_w, shrink=True
        )
        assert report.ok, report.describe()

    def test_registries_cover_every_engine(self):
        plans = {"plan[serial]", "plan[parallel]", "plan[ygm]"}
        assert set(default_projection_engines()) == plans | {
            "reference",
            "incremental",
            "bucketed",
            "streaming",
        }
        assert set(default_triangle_engines()) == plans | {"brute", "streaming"}
        assert set(default_validation_engines()) == plans | {
            "reference",
            "bitset",
            "probe",
        }
