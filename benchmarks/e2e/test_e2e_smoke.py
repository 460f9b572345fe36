"""Self-tests of the e2e harness: every workload at the smoke scale.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (under a minute).
"""

import json
import re

import pytest

from benchmarks.e2e import run as e2e
from benchmarks.e2e.spec import (
    END_TO_END,
    PER_LAYER,
    RESULTS_DIR,
    ROOT,
    SMOKE_SECONDS,
    WORKLOADS,
)
from benchmarks.e2e.tracing import END, NAME, PARENT, START, self_times

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced smoke run of every workload."""
    return {
        (workload, trace): e2e.run_workload(workload, 7, SMOKE_SECONDS, trace, "smoke")
        for workload in WORKLOADS
        for trace in (False, True)
    }


def _no_duplicate_keys(pairs):
    keys = [key for key, _value in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def test_benchmark_json_meets_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in doc[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT_RE.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_every_named_metric_is_emitted_once_with_its_unit(runs, workload, trace):
    result = runs[workload, trace]
    assert result["correct"], result["problems"]
    line = json.loads(e2e.result_line(result), object_pairs_hook=_no_duplicate_keys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = PER_LAYER if trace else {n: m["unit"] for n, m in END_TO_END.items()}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_layers_only_show_on_the_workloads_built_for_them(runs):
    def layer(workload, name):
        return runs[workload, True]["metrics"][name]["value"]

    for workload in WORKLOADS:
        exec_used = any(
            layer(workload, name) for name in PER_LAYER if name.startswith("exec.")
        )
        assert exec_used == (workload == "batch-parallel")
    assert layer("serve-ingest", "serve.exchange.count") == 0
    assert layer("serve-mixed", "serve.exchange.count") > 0
    assert layer("serve-ingest", "serve.wal.records") > 0


@pytest.mark.parametrize(
    "workload, root, residual",
    [
        ("batch-sparse", "rep", "pipeline.residual_s"),
        ("batch-parallel", "rep", "pipeline.residual_s"),
        ("batch-dense", "rep", "pipeline.residual_s"),
        ("serve-ingest", "run_events", "serve.loop.residual_s"),
    ],
)
def test_spans_nest_and_sum_to_the_root_within_the_residual(
    runs, workload, root, residual
):
    metrics = runs[workload, True]["metrics"]
    trace = json.loads(
        (RESULTS_DIR / f"trace-{workload}.json").read_text(encoding="utf-8")
    )
    spans = trace["spans"]
    assert trace["workload"] == workload and spans
    for span in spans:
        assert span[END] >= span[START]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
    roots = [i for i, span in enumerate(spans) if span[NAME] == root]
    assert len(roots) == 1 and spans[roots[0]][PARENT] == -1
    wall = spans[roots[0]][END] - spans[roots[0]][START]
    children = sum(s[END] - s[START] for s in spans if s[PARENT] == roots[0])
    totals, _counts = self_times(spans)
    assert totals[root] == pytest.approx(wall - children, abs=1e-9)
    assert metrics[residual]["value"] == pytest.approx(totals[root], abs=1e-9)
    assert 0 <= totals[root] < wall
