"""Tests for DurableStore recovery: replay contract, fallback, refusal."""

import numpy as np
import pytest

from repro.graph import BipartiteTemporalMultigraph
from repro.graph.filters import AuthorFilter
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow
from repro.serve import DetectionEngine
from repro.store import (
    DurableStore,
    StoreMismatchError,
    TornWalError,
    config_fingerprint,
    engine_state_arrays,
    restore_engine_state,
)
from repro.util.ids import Interner
from repro.verify.chaos import diff_results
from repro.verify.online import _check

pytestmark = pytest.mark.serve


def make_config(**overrides) -> PipelineConfig:
    kwargs = dict(
        window=TimeWindow(0, 60),
        min_triangle_weight=1,
        min_component_size=2,
        author_filter=AuthorFilter.none(),
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def seeded_engine(config) -> DetectionEngine:
    engine = DetectionEngine(config)
    engine.ingest([("a", "p", 0), ("b", "p", 10), ("c", "p", 20)])
    engine.ingest([("a", "q", 30), ("b", "q", 35), ("c", "q", 40)])
    engine.advance(5)
    return engine


class TestEngineStateCodec:
    def test_roundtrip_is_bit_identical(self):
        config = make_config()
        engine = seeded_engine(config)
        arrays, meta = engine_state_arrays(engine)
        restored = restore_engine_state(arrays, meta, config)
        assert diff_results(engine.snapshot(), restored.snapshot()) == []
        assert restored.evict_cutoff == engine.evict_cutoff

    def test_config_mismatch_refused(self):
        config = make_config()
        engine = seeded_engine(config)
        arrays, meta = engine_state_arrays(engine)
        other = make_config(min_triangle_weight=9)
        with pytest.raises(StoreMismatchError):
            restore_engine_state(arrays, meta, other)

    def test_fingerprint_reflects_detection_knobs(self):
        a = config_fingerprint(make_config())
        b = config_fingerprint(make_config(min_triangle_weight=9))
        c = config_fingerprint(make_config())
        assert a != b
        assert a == c


class TestPersistedFormat:
    """A ``STATE_FORMAT = 1`` generation written out by hand — the layout
    snapshots have had since the format was introduced — still restores
    to the batch answer."""

    USER_KEYS = ["gone0", "a", "gone2", "b", "c"]   # ids 0 and 2 are dead
    PAGE_KEYS = ["gone", "p", "q"]                  # page 0 is dead
    # Live pages in first-arrival order (q before p); each page's rows in
    # time order, equal timestamps in arrival order.
    PAGE_ORDER = [2, 1]
    ROWS = [  # (user, page, time)
        (3, 2, 100), (1, 2, 100), (4, 2, 110), (1, 2, 150),
        (1, 1, 120), (3, 1, 125), (4, 1, 125), (3, 1, 170), (4, 1, 400),
    ]

    def generation(self, config):
        users, pages, times = (
            np.asarray(c, dtype=np.int64) for c in zip(*self.ROWS)
        )
        arrays = {
            "user_keys": np.asarray(self.USER_KEYS, dtype=object),
            "page_keys": np.asarray(self.PAGE_KEYS, dtype=object),
            "page_order": np.asarray(self.PAGE_ORDER, dtype=np.int64),
            "comment_user": users,
            "comment_page": pages,
            "comment_time": times,
            "filtered_names": np.asarray(["AutoModerator"], dtype=object),
        }
        meta = {
            "state_format": 1,
            "fingerprint": config_fingerprint(config),
            "evict_cutoff": 90,
            "filtered_comments": 2,
            "n_comments": len(self.ROWS),
            "auto_compact": True,
            "compact_ratio": 4.0,
            "compact_min": 1024,
        }
        return arrays, meta

    def test_hand_built_generation_restores_to_the_oracle(self, tmp_path):
        config = make_config(
            window=TimeWindow(0, 30),
            compute_hypergraph=True,
            author_filter=AuthorFilter(exact_names=frozenset({"AutoModerator"})),
        )
        arrays, meta = self.generation(config)
        store = DurableStore(tmp_path)
        store.snapshots.save(4, arrays, meta)
        engine, report = store.recover_engine(config)
        assert report.snapshot_seq == 4 and engine.evict_cutoff == 90

        users, pages, times = (
            arrays[k] for k in ("comment_user", "comment_page", "comment_time")
        )
        oracle = CoordinationPipeline(config).run(
            BipartiteTemporalMultigraph(
                users, pages, times, Interner(self.USER_KEYS), Interner(self.PAGE_KEYS)
            )
        )
        got = engine.snapshot()
        assert diff_results(oracle, got) == []
        assert got.triangles.n_triangles == 1
        # q: b/a at 100 (twice: delta1 = 0), b-c, a-c; p: a-b, a-c, b/c at 125.
        assert engine.proj.raw_pair_observations() == 8
        assert got.filter_report.removed_comments == 2

        # The restored state writes back the same generation, row for row.
        again, again_meta = engine_state_arrays(engine)
        for key, value in arrays.items():
            assert again[key].tolist() == value.tolist(), key
        assert again_meta == meta

        # And it keeps going: a late event is dropped, the rest land.
        engine.ingest([("d", "p", 80), ("d", "q", 105), ("b", "q", 112)])
        live = [
            (self.USER_KEYS[u], self.PAGE_KEYS[p], t) for u, p, t in self.ROWS
        ] + [("d", "q", 105), ("b", "q", 112)]
        assert _check("after restore", config, live, engine) == []


class TestRecoverEngine:
    def test_cold_start(self, tmp_path):
        store = DurableStore(tmp_path)
        assert not store.has_state()
        engine, report = store.recover_engine(make_config())
        assert report.cold_start
        assert engine.n_live_comments == 0
        assert "cold start" in report.describe()

    def test_snapshot_plus_wal_suffix(self, tmp_path):
        config = make_config()
        store = DurableStore(tmp_path)
        engine = seeded_engine(config)
        arrays, meta = engine_state_arrays(engine)
        meta["max_event_time"] = 40
        store.snapshots.save(2, arrays, meta)
        with store.open_wal(fsync="off") as wal:
            wal.reset_to(2)
            wal.append(
                {"events": [["d", "q", 45]], "cutoff": None, "wm": 45, "acc": 7}
            )
        engine.ingest([("d", "q", 45)])  # what replay should reproduce

        recovered, report = store.recover_engine(config)
        assert report.snapshot_seq == 2
        assert report.records_replayed == 1
        assert report.events_replayed == 1
        assert report.applied_seq == 3
        assert report.max_event_time == 45
        assert report.events_durable == 7
        assert diff_results(engine.snapshot(), recovered.snapshot()) == []

    def test_wal_gap_after_snapshot_refused(self, tmp_path):
        config = make_config()
        store = DurableStore(tmp_path)
        engine = seeded_engine(config)
        arrays, meta = engine_state_arrays(engine)
        store.snapshots.save(2, arrays, meta)
        with store.open_wal(fsync="off") as wal:
            wal.reset_to(5)  # journal starts past the snapshot's offset
            wal.append({"events": [], "cutoff": 1})
        with pytest.raises(TornWalError, match="cannot cover"):
            store.recover_engine(config)

    def test_wal_behind_snapshot_is_fine(self, tmp_path):
        """Snapshot newer than every journal record: snapshot wins."""
        config = make_config()
        store = DurableStore(tmp_path)
        with store.open_wal(fsync="off") as wal:
            wal.append({"events": [["a", "p", 0]], "cutoff": None, "wm": 0})
        engine = seeded_engine(config)
        arrays, meta = engine_state_arrays(engine)
        store.snapshots.save(9, arrays, meta)
        recovered, report = store.recover_engine(config)
        assert report.snapshot_seq == 9
        assert report.records_replayed == 0
        assert report.applied_seq == 9
        assert diff_results(engine.snapshot(), recovered.snapshot()) == []

    def test_prune_wal_respects_oldest_generation(self, tmp_path):
        config = make_config()
        store = DurableStore(tmp_path)
        engine = seeded_engine(config)
        arrays, meta = engine_state_arrays(engine)
        with store.open_wal(fsync="off", segment_bytes=128) as wal:
            for i in range(12):
                wal.append({"events": [["u%d" % i, "p", i]], "cutoff": None})
        store.snapshots.save(6, arrays, meta)
        store.snapshots.save(10, arrays, meta)
        store.prune_wal()
        # Every record >= the OLDEST retained generation must survive, so
        # a fallback from generation 10 to generation 6 can still replay.
        from repro.serve.wal import read_wal

        seqs = [seq for seq, _ in read_wal(store.wal_dir, start_seq=6)]
        assert seqs == list(range(6, 12))
