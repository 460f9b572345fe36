"""Tests for the multi-layer pipeline and its legacy byte-identity."""

import json
from dataclasses import replace

import pytest

from repro.actions.base import available_layers
from repro.datagen import RedditDatasetBuilder
from repro.exec import leaked_shm_files
from repro.graph.io import IngestStats, btms_from_ndjson
from repro.pipeline import (
    CoordinationPipeline,
    MultiLayerPipeline,
    PipelineConfig,
    btms_from_records,
)
from repro.projection import TimeWindow
from repro.verify.chaos import diff_results

pytestmark = pytest.mark.layers

CONFIG = PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=5)


@pytest.fixture(scope="module")
def dataset():
    return RedditDatasetBuilder.multilayer(seed=31, scale=0.05).build()


class TestLegacyIdentity:
    """The page layer alone must reproduce the pre-refactor results."""

    def test_page_layer_matches_single_layer_pipeline(self, dataset):
        legacy = CoordinationPipeline(CONFIG).run(dataset.btm)
        layered = MultiLayerPipeline(CONFIG, layers=["page"]).run_records(
            dataset.records
        )
        assert diff_results(legacy, layered.layers["page"]) == []

    def test_legacy_result_layer_is_none(self, dataset):
        legacy = CoordinationPipeline(CONFIG).run(dataset.btm)
        assert legacy.layer is None

    def test_layered_results_are_tagged(self, dataset):
        result = MultiLayerPipeline(CONFIG, layers=["page", "link"]).run_records(
            dataset.records
        )
        assert result.layers["page"].layer == "page"
        assert result.layers["link"].layer == "link"


class TestMultiLayerPipeline:
    def test_layers_execute_sorted_and_config_filled(self, dataset):
        pipe = MultiLayerPipeline(CONFIG, layers=["text", "page", "link"])
        assert pipe.config.layers == ("link", "page", "text")
        result = pipe.run_records(dataset.records)
        assert result.layer_names() == ["link", "page", "text"]

    def test_layer_list_order_does_not_change_fusion(self, dataset):
        forward = MultiLayerPipeline(
            CONFIG, layers=["page", "link", "hashtag"]
        ).run_records(dataset.records)
        backward = MultiLayerPipeline(
            CONFIG, layers=["hashtag", "link", "page"]
        ).run_records(dataset.records)
        assert forward.fused == backward.fused
        assert forward.fused_components == backward.fused_components

    def test_missing_btm_rejected(self):
        pipe = MultiLayerPipeline(CONFIG, layers=["page", "link"])
        with pytest.raises(ValueError, match="link"):
            pipe.run({"page": None})

    def test_layer_weights_feed_fusion(self, dataset):
        config = PipelineConfig(
            window=TimeWindow(0, 60),
            min_triangle_weight=5,
            layer_weights=(("link", 2.0),),
        )
        unweighted = MultiLayerPipeline(CONFIG, layers=["link"]).run_records(
            dataset.records
        )
        weighted = MultiLayerPipeline(config, layers=["link"]).run_records(
            dataset.records
        )
        assert weighted.fused.weights == (("link", 2.0),)
        base = {(e.a, e.b): e.score for e in unweighted.fused.edges}
        for edge in weighted.fused.edges:
            assert edge.score == 2.0 * base[(edge.a, edge.b)]

    def test_timings_cover_every_layer_and_fusion(self, dataset):
        result = MultiLayerPipeline(CONFIG, layers=["page", "link"]).run_records(
            dataset.records
        )
        assert {"layer.link", "layer.page", "fuse"} <= set(
            result.timings.stages
        )

    def test_summary_mentions_layers_and_fusion(self, dataset):
        result = MultiLayerPipeline(CONFIG, layers=["page", "link"]).run_records(
            dataset.records
        )
        text = result.summary()
        assert "[page]" in text and "[link]" in text
        assert "fused" in text


class TestSharedExecutor:
    def test_parallel_run_uses_one_pool_for_every_layer(
        self, dataset, monkeypatch
    ):
        layers = available_layers()
        assert len(layers) == 5
        seen = []
        run = CoordinationPipeline.run

        def spy(self, btm, *, executor=None, **kw):
            result = run(self, btm, executor=executor, **kw)
            seen.append((id(executor), executor.worker_pids()))
            return result

        monkeypatch.setattr(CoordinationPipeline, "run", spy)
        parallel = replace(CONFIG, executor="parallel", n_workers=2)
        got = MultiLayerPipeline(parallel, layers=layers).run_records(
            dataset.records
        )
        monkeypatch.undo()
        assert len(seen) == 5 and len(set(seen)) == 1, seen
        want = MultiLayerPipeline(CONFIG, layers=layers).run_records(
            dataset.records
        )
        for name in layers:
            assert diff_results(want.layers[name], got.layers[name]) == []
        assert got.fused == want.fused
        assert leaked_shm_files() == ()


class TestBtmsFromRecords:
    def test_record_objects_and_dicts_agree(self, dataset):
        rows = [rec.to_pushshift_dict() for rec in dataset.records]
        from_records = btms_from_records(dataset.records, ["page", "link"])
        from_dicts = btms_from_records(rows, ["page", "link"])
        for name in ("page", "link"):
            assert (
                from_records[name].n_comments == from_dicts[name].n_comments
            )

    def test_per_layer_event_counts_differ(self, dataset):
        btms = btms_from_records(dataset.records, ["page", "link"])
        assert btms["page"].n_comments == len(dataset.records)
        assert 0 < btms["link"].n_comments < btms["page"].n_comments


class TestRunNdjson:
    def test_ingest_stats_and_quarantine(self, tmp_path, dataset):
        path = tmp_path / "corpus.ndjson"
        sidecar = tmp_path / "rejects.ndjson"
        rows = [rec.to_pushshift_dict() for rec in dataset.records]
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
            fh.write("not json at all\n")
        pipe = MultiLayerPipeline(CONFIG, layers=["page", "link"])
        result = pipe.run_ndjson(path, errors="skip", quarantine=sidecar)
        assert result.ingest is not None
        assert result.ingest.malformed == 1
        assert result.ingest.skip_count("link") > 0
        assert result.ingest.skip_count("page") == 0
        assert sidecar.read_text(encoding="utf-8").count("\n") == 1

    def test_raise_mode_propagates_malformed(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"author": "a"}\n', encoding="utf-8")
        pipe = MultiLayerPipeline(CONFIG, layers=["page"])
        with pytest.raises(ValueError):
            pipe.run_ndjson(path)


class TestBtmsFromNdjson:
    def test_single_pass_matches_per_layer_loads(self, tmp_path, dataset):
        path = tmp_path / "corpus.ndjson"
        rows = [rec.to_pushshift_dict() for rec in dataset.records]
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        stats = IngestStats()
        btms = btms_from_ndjson(
            path, ["page", "link", "text"], stats=stats
        )
        in_memory = btms_from_records(rows, ["page", "link", "text"])
        for name in ("page", "link", "text"):
            assert btms[name].n_comments == in_memory[name].n_comments
        assert stats.layer_skips["link"] + btms["link"].n_comments >= len(rows)

    def test_skipped_everywhere_record_quarantined(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        sidecar = tmp_path / "rejects.ndjson"
        rows = [
            {"author": "a", "created_utc": 0,
             "link": "https://x.example/1"},
            {"author": "b", "created_utc": 5},  # no action on any layer
        ]
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        stats = IngestStats()
        btms = btms_from_ndjson(
            path, ["link", "hashtag"], "skip",
            quarantine=sidecar, stats=stats,
        )
        assert btms["link"].n_comments == 1
        assert stats.layer_skips == {"link": 1, "hashtag": 2}
        quarantined = sidecar.read_text(encoding="utf-8").strip().splitlines()
        assert len(quarantined) == 1
        assert json.loads(quarantined[0])["author"] == "b"
