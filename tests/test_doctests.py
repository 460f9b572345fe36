"""Executes the library's docstring examples (they are part of the API docs)."""

import doctest
import importlib

import pytest

MODULES = [
    "repro.util.ids",
    "repro.util.rng",
    "repro.util.timers",
    "repro.ygm.handlers",
    "repro.ygm.world",
    "repro.ygm.containers.map",
    "repro.ygm.containers.bag",
    "repro.graph.bipartite",
    "repro.graph.edgelist",
    "repro.projection.window",
    "repro.projection.project",
    "repro.projection.buckets",
    "repro.projection.cores",
    "repro.projection.streaming",
    "repro.tripoll.survey",
    "repro.tripoll.engine",
    "repro.tripoll.aggregate",
    "repro.hypergraph.incidence",
    "repro.hypergraph.triplets",
    "repro.hypergraph.windowed",
    "repro.hypergraph.kgroups",
    "repro.pipeline.sweep",
    "repro.analysis.parameters",
    "repro.analysis.temporal",
    "repro.analysis.report",
    "repro.datagen.background",
    "repro.datagen.ground_truth",
    "repro.baselines.pacheco",
    "repro.projection.incremental",
    "repro.serve.engine",
    "repro.serve.ingest",
    "repro.serve.metrics",
    "repro.serve.service",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
    assert results.attempted > 0, f"no doctests found in {module_name}"
