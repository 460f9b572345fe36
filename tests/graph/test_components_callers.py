"""One random graph through every caller of the components kernel.

Edge-list components, the fused graph and the serve core (id-keyed as
in the engine, name-keyed as in the sharded tier's aggregate) must all
give networkx's partition in the one canonical order: members sorted,
components by ``(-size, members)``.  Names are interned in
first-appearance order, which differs from their sorted order, and
include non-ASCII and NUL-suffixed names.
"""

import networkx as nx
import numpy as np
import pytest

from repro.actions.fuse import fuse_edge_maps
from repro.graph import EdgeList
from repro.graph.components import components_as_lists
from repro.pipeline.config import PipelineConfig
from repro.serve.engine import ScoringCore

NAMES = [
    "zoë", "Émile", "bob", "x\x00", "x", "日本", "ß", "Bob", "ålesund", "a",
    "ZZ", "ü", "bob ", "😀", "m", "Ω", "_", "0", "x\x00\x00", "mañana",
    "k", "q", "Zed", "éa", "ea", "ñ", "aa", "b", "c", "d",
]


class IdKeyedCore(ScoringCore):
    """A core keyed by first-appearance ids, as the engine's interner is."""

    def __init__(self, names, **kwargs):
        self._names = names
        self._ids = {name: i for i, name in enumerate(names)}
        super().__init__(**kwargs)

    def _name_of(self, key):
        return self._names[key]

    def _key_of(self, author):
        return self._ids.get(author)


def canonical(parts, min_size):
    comps = [sorted(c) for c in parts if len(c) >= min_size]
    return sorted(comps, key=lambda c: (-len(c), c))


def random_graph(seed):
    """Distinct ``(i, j)`` id pairs, ``i < j``, over a shuffled name list."""
    rng = np.random.default_rng(seed)
    names = [NAMES[i] for i in rng.permutation(len(NAMES))]  # no <U: it drops NULs
    n = len(names)
    pairs = {
        (int(min(i, j)), int(max(i, j)))
        for i, j in rng.integers(0, n, (int(rng.integers(5, 30)), 2))
        if i != j
    }
    return names, sorted(pairs)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("min_size", [2, 3])
def test_every_caller_gives_the_networkx_answer(seed, min_size):
    names, pairs = random_graph(seed)
    assert names != sorted(names)
    by_id = nx.Graph(pairs)
    by_name = nx.relabel_nodes(by_id, dict(enumerate(names)))
    want_ids = canonical(nx.connected_components(by_id), min_size)
    want = canonical(nx.connected_components(by_name), min_size)

    src, dst = zip(*pairs)
    assert components_as_lists(EdgeList(src, dst), min_size) == want_ids

    named_pairs = {(names[i], names[j]): 3 for i, j in pairs}
    assert fuse_edge_maps({"page": named_pairs}).components(min_size) == want

    config = PipelineConfig(min_triangle_weight=2, min_component_size=min_size)
    ledgers = [
        IdKeyedCore(
            names, config=config, pair_weights={p: 3 for p in pairs},
            page_counts=dict.fromkeys(range(len(names)), 1),
        ),
        ScoringCore(
            config,
            pair_weights={tuple(sorted(p)): w for p, w in named_pairs.items()},
            page_counts=dict.fromkeys(names, 1),
        ),
    ]
    everyone = canonical(nx.connected_components(by_name), 1)
    for core in ledgers:
        assert core.components() == want
        for name in names + ["nobody"]:
            mine = next((c for c in everyone if name in c), [])
            assert core.component_of(name) == mine
