"""Step 2 — TriPoll-style triangle surveying (paper §2.3).

TriPoll [Steil et al., SC'21] computes *surveys* over every triangle of a
massive graph, delivering per-edge metadata (here: the projection weights
``w'``) to a callback, optionally after pre-thresholding edges.  This
package reproduces that contract over one set of kernels
(degree-ordered edge orientation, vectorized wedge generation, and a
sorted-key hash join for the closing edge — O(m^1.5) work):

- :func:`~repro.tripoll.engine.survey_triangles_plan` — the pipeline's
  Step 2: :data:`repro.exec.plans.SURVEY_PLAN` over wedge-range shards
  on any executor (serial, worker pool, or YGM ranks closing their
  wedges against the replicated join table).
- :func:`~repro.tripoll.survey.survey_triangles` — TriPoll's streaming
  survey API: one bounded wedge batch at a time delivered to a
  ``survey_callback`` (see :mod:`~repro.tripoll.aggregate`).
- :func:`~repro.tripoll.survey.triangles_brute` — an O(n³) oracle for
  tests.

The survey result is a :class:`~repro.tripoll.survey.TriangleSet` carrying
all three edge weights per triangle, from which the paper's Step 2 metrics
(minimum edge weight and the normalized score ``T`` of eq. 7) fall out as
array expressions (:mod:`~repro.tripoll.metrics`).
"""

from repro.tripoll.survey import (
    TriangleSet,
    survey_triangles,
    triangles_brute,
)
from repro.tripoll.metrics import min_edge_weights, t_scores
from repro.tripoll.engine import survey_triangles_plan
from repro.tripoll.aggregate import (
    CountAggregator,
    MinWeightHistogram,
    TopKByMinWeight,
    TScoreHistogram,
    ComponentAggregator,
    run_survey,
)

__all__ = [
    "TriangleSet",
    "survey_triangles",
    "triangles_brute",
    "survey_triangles_plan",
    "min_edge_weights",
    "t_scores",
    "CountAggregator",
    "MinWeightHistogram",
    "TopKByMinWeight",
    "TScoreHistogram",
    "ComponentAggregator",
    "run_survey",
]
