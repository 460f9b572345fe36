"""Tests for DurableDetectionService: journal parity, recovery, retention."""

import random

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import DetectionEngine, DetectionService, DurableDetectionService
from repro.serve.wal import read_wal
from repro.store import DurableStore
from repro.verify.chaos import diff_results

pytestmark = pytest.mark.serve

CONFIG = PipelineConfig(
    window=TimeWindow(0, 120),
    min_triangle_weight=1,
    min_component_size=2,
    author_filter=AuthorFilter.none(),
)
KW = dict(window_horizon=600, allowed_lateness=10, batch_size=16)


def stream(n=400, seed=13):
    rng = random.Random(seed)
    return [
        ("u%d" % rng.randrange(25), "p%d" % rng.randrange(8), rng.randrange(0, 2000))
        for _ in range(n)
    ]


def drive(svc, events):
    """The deterministic feed loop (no tail drain — callers decide)."""
    for event in events:
        while not svc.submit(event):
            svc.tick()
        if svc.queue.depth >= svc.batch_size:
            svc.tick()


class TestDurableParity:
    def test_durable_run_matches_in_memory_run(self, tmp_path):
        ref = DetectionService(CONFIG, **KW)
        ref.run_events(stream())
        ref.drain_all()
        with DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_every=8, **KW
        ) as svc:
            svc.run_events(stream())
            svc.drain_all()
            assert diff_results(ref.engine.snapshot(), svc.engine.snapshot()) == []

    def test_reopen_restores_bit_identical_state(self, tmp_path):
        with DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_every=8, **KW
        ) as svc:
            svc.run_events(stream())
            svc.drain_all()
            expected = svc.engine.snapshot()
            wm = svc.watermark.max_event_time
        with DurableDetectionService(CONFIG, directory=tmp_path, **KW) as svc2:
            assert not svc2.recovery.cold_start
            assert diff_results(expected, svc2.engine.snapshot()) == []
            assert svc2.watermark.max_event_time == wm

    def test_abandoned_process_replays_wal_suffix(self, tmp_path):
        svc = DurableDetectionService(
            CONFIG,
            directory=tmp_path,
            snapshot_every=8,
            snapshot_on_close=False,
            **KW,
        )
        drive(svc, stream())
        expected = svc.engine.snapshot()
        applied = svc.wal.next_seq
        del svc  # no close(), no final snapshot — as a crash leaves it

        recovered = DurableDetectionService(CONFIG, directory=tmp_path, **KW)
        assert recovered.recovery.applied_seq == applied
        assert recovered.recovery.records_replayed > 0
        assert diff_results(expected, recovered.engine.snapshot()) == []
        recovered.close()

    def test_engine_restore_classmethod(self, tmp_path):
        with DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_every=8, **KW
        ) as svc:
            svc.run_events(stream(120))
            svc.drain_all()
            expected = svc.engine.snapshot()
        engine, report = DetectionEngine.restore(DurableStore(tmp_path), CONFIG)
        assert not report.cold_start
        assert diff_results(expected, engine.snapshot()) == []


class TestJournalContents:
    def test_idle_ticks_are_not_journaled(self, tmp_path):
        with DurableDetectionService(CONFIG, directory=tmp_path, **KW) as svc:
            for _ in range(5):
                svc.tick()  # nothing queued, nothing to advance
            assert svc.wal.next_seq == 0

    def test_records_carry_the_write_ahead_payload(self, tmp_path):
        with DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_on_close=False, **KW
        ) as svc:
            for name, t in (("a", 0), ("b", 10), ("c", 20)):
                svc.submit((name, "p", t))
            svc.tick()
        records = [rec for _seq, rec in read_wal(tmp_path / "wal")]
        assert len(records) == 1
        assert records[0]["events"] == [["a", "p", 0], ["b", "p", 10], ["c", "p", 20]]
        assert records[0]["wm"] == 20
        assert records[0]["acc"] == 3

    def test_events_journaled_tracks_stream_position(self, tmp_path):
        with DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_every=4, **KW
        ) as svc:
            svc.run_events(stream(100))
            svc.drain_all()
            assert svc.events_journaled == 100
        with DurableDetectionService(CONFIG, directory=tmp_path, **KW) as svc2:
            assert svc2.events_journaled == 100
            assert svc2.recovery.events_durable == 100


class TestSnapshotCadence:
    def test_snapshots_taken_every_n_records(self, tmp_path):
        with DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_every=4, **KW
        ) as svc:
            drive(svc, stream(200))
            store = svc.store
            assert store.snapshots.generations(), "cadence produced no snapshot"
            assert svc._records_since_snapshot < 4

    def test_wal_pruned_to_oldest_retained_generation(self, tmp_path):
        with DurableDetectionService(
            CONFIG,
            directory=tmp_path,
            snapshot_every=2,
            keep_snapshots=2,
            wal_segment_bytes=512,
            **KW,
        ) as svc:
            drive(svc, stream(400))
            generations = svc.store.snapshots.generations()
            assert len(generations) == 2
            oldest = min(generations)
            seqs = [seq for seq, _ in read_wal(tmp_path / "wal", start_seq=oldest)]
            # A complete suffix for the OLDEST snapshot must survive so
            # corruption fallback can still replay.
            assert seqs == list(range(oldest, svc.wal.next_seq))

    def test_close_writes_final_snapshot(self, tmp_path):
        svc = DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_every=10_000, **KW
        )
        svc.run_events(stream(60))
        svc.drain_all()
        assert not svc.store.snapshots.generations()
        svc.close()
        gens = svc.store.snapshots.generations()
        assert gens and gens[0] == svc.wal.next_seq

    def test_status_reports_durability(self, tmp_path):
        with DurableDetectionService(
            CONFIG, directory=tmp_path, snapshot_every=4, **KW
        ) as svc:
            svc.run_events(stream(80))
            svc.drain_all()
            status = svc.status()
        assert status["durable_dir"] == str(tmp_path)
        assert status["wal_seq"] == svc.wal.next_seq
        assert status["wal_fsync"] == "interval"
        assert "recovery" in status

    def test_snapshot_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            DurableDetectionService(
                CONFIG, directory=tmp_path, snapshot_every=0, **KW
            )


class TestStoreLayout:
    """One durable layout per deployment, refused typed in both directions."""

    @staticmethod
    def tree(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    def test_tier_refuses_a_single_engine_root(self, tmp_path):
        from repro.serve import ShardedDetectionService
        from repro.store import StoreLayoutError

        with DurableDetectionService(CONFIG, directory=tmp_path, **KW) as svc:
            drive(svc, stream(100))
        before = self.tree(tmp_path)
        with pytest.raises(StoreLayoutError, match="shard-00"):
            ShardedDetectionService(CONFIG, n_shards=1, directory=tmp_path)
        # Refused before anything is written: no empty tier beside it.
        assert self.tree(tmp_path) == before
        assert not (tmp_path / "shard-00").exists()

    def test_single_engine_refuses_a_tier_root(self, tmp_path):
        from repro.serve import ShardedDetectionService
        from repro.store import StoreLayoutError

        with ShardedDetectionService(
            CONFIG, n_shards=2, directory=tmp_path, **KW
        ) as tier:
            tier.run_events(stream(100))
        before = self.tree(tmp_path)
        assert (tmp_path / "shard-00" / "wal").is_dir()
        with pytest.raises(StoreLayoutError, match="--shards 2"):
            DurableDetectionService(CONFIG, directory=tmp_path, **KW)
        assert self.tree(tmp_path) == before
        assert not (tmp_path / "wal").exists()
