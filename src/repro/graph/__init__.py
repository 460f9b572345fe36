"""Graph substrates: edge lists, CSR adjacency, the bipartite temporal multigraph.

This package provides the in-memory graph machinery everything else builds
on:

- :class:`~repro.graph.edgelist.EdgeList` — a struct-of-arrays weighted
  edge list with duplicate-collapsing accumulation (the output format of
  the projection step).
- :class:`~repro.graph.csr.CSRGraph` — compressed sparse row adjacency
  with per-edge weights, the input format of the triangle survey.
- :class:`~repro.graph.bipartite.BipartiteTemporalMultigraph` — the
  paper's ``B = (U, P, E, t)``: authors × pages with timestamped comment
  edges (a multigraph: repeat comments are distinct edges).
- :mod:`~repro.graph.components` — connected components (through the one
  kernel) plus a distributed label-propagation variant on the YGM runtime.
- :mod:`~repro.graph.ordering` — degree-based edge orientation used by the
  triangle engine.
- :mod:`~repro.graph.filters` — the paper's helpful-bot / deleted-author
  pre-filters (``AutoModerator``, ``[deleted]``, …).
- :mod:`~repro.graph.io` — ndjson comment records and npz graph
  round-tripping.
"""

from repro.graph.edgelist import EdgeList
from repro.graph.csr import CSRGraph
from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.components import connected_components, UnionFind
from repro.graph.ordering import degree_order, orient_edges
from repro.graph.filters import AuthorFilter, DEFAULT_EXCLUDED_AUTHORS

__all__ = [
    "EdgeList",
    "CSRGraph",
    "BipartiteTemporalMultigraph",
    "connected_components",
    "UnionFind",
    "degree_order",
    "orient_edges",
    "AuthorFilter",
    "DEFAULT_EXCLUDED_AUTHORS",
]
