"""repro — Coordinated botnet detection in social networks via clustering analysis.

A laptop-scale, production-quality reproduction of Piercey (2023):
detecting coordinated account groups ("botnets") on a Reddit-like platform
purely from the *spatio-temporal structure* of their commenting — no
content features — via a three-step framework:

1. **Project** the bipartite temporal multigraph of (author, page, time)
   comments onto a weighted author–author *common interaction graph*
   using a delay window ``(δ1, δ2)`` — :mod:`repro.projection`.
2. **Survey** that graph for triangles with high minimum edge weight
   (TriPoll-style, with metadata) — :mod:`repro.tripoll`.
3. **Validate** surviving author triplets against the original bipartite
   data with hypergraph coordination metrics — :mod:`repro.hypergraph`.

Substrates built from scratch: a YGM-style asynchronous distributed
runtime with containers (:mod:`repro.ygm`), graph structures
(:mod:`repro.graph`), a synthetic Reddit corpus generator with
ground-truth botnets (:mod:`repro.datagen`), figure/report analytics
(:mod:`repro.analysis`), and the baselines the paper contrasts with
(:mod:`repro.baselines`).  :mod:`repro.pipeline` wires it all together.

Quickstart
----------
>>> from repro import (RedditDatasetBuilder, CoordinationPipeline,
...                    PipelineConfig, TimeWindow)
>>> ds = RedditDatasetBuilder.jan2020_like(seed=7, scale=0.2).build()
>>> result = CoordinationPipeline(
...     PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=25)
... ).run(ds.btm)
>>> len(result.components) > 0
True
"""

from repro.graph import (
    BipartiteTemporalMultigraph,
    CSRGraph,
    EdgeList,
    AuthorFilter,
)
from repro.projection import (
    TimeWindow,
    project,
    project_bucketed,
    CommonInteractionGraph,
)
from repro.tripoll import (
    TriangleSet,
    survey_triangles,
    t_scores,
)
from repro.hypergraph import (
    UserPageIncidence,
    evaluate_triplets,
    agglomerate_groups,
)
from repro.pipeline import (
    CoordinationPipeline,
    PipelineConfig,
    PipelineResult,
    IterativeRefiner,
)
from repro.datagen import (
    RedditDatasetBuilder,
    SyntheticDataset,
    GroundTruth,
    score_detection,
)
from repro.analysis import score_figure, weight_figure, census_components
from repro.ygm import YgmWorld, ygm_world

__version__ = "1.0.0"

__all__ = [
    "BipartiteTemporalMultigraph",
    "CSRGraph",
    "EdgeList",
    "AuthorFilter",
    "TimeWindow",
    "project",
    "project_bucketed",
    "CommonInteractionGraph",
    "TriangleSet",
    "survey_triangles",
    "t_scores",
    "UserPageIncidence",
    "evaluate_triplets",
    "agglomerate_groups",
    "CoordinationPipeline",
    "PipelineConfig",
    "PipelineResult",
    "IterativeRefiner",
    "RedditDatasetBuilder",
    "SyntheticDataset",
    "GroundTruth",
    "score_detection",
    "score_figure",
    "weight_figure",
    "census_components",
    "YgmWorld",
    "ygm_world",
    "__version__",
]
