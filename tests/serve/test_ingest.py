"""Tests for the ingestion frontend (queue, watermark, ndjson streaming)."""

import json

import pytest

from repro.graph.io import IngestStats
from repro.serve.ingest import (
    EventQueue,
    WatermarkTracker,
    iter_ndjson_events,
)

pytestmark = pytest.mark.serve


def parse(record):
    """One Pushshift record through the service's line parser."""
    return list(iter_ndjson_events([json.dumps(record)]))


class TestEventQueue:
    def test_fifo_drain(self):
        q = EventQueue(capacity=10)
        for t in range(5):
            assert q.offer(("u", "p", t))
        assert [e[2] for e in q.drain(3)] == [0, 1, 2]
        assert q.depth == 2

    def test_reject_backpressure(self):
        q = EventQueue(capacity=2, policy="reject")
        assert q.offer(("u", "p", 1)) and q.offer(("u", "p", 2))
        assert not q.offer(("u", "p", 3))
        assert q.depth == 2 and q.dropped == 1 and q.is_full

    def test_drop_oldest_sheds_head(self):
        q = EventQueue(capacity=2, policy="drop-oldest")
        for t in (1, 2, 3):
            assert q.offer(("u", "p", t))
        assert [e[2] for e in q.drain(10)] == [2, 3]

    def test_drop_newest_sheds_offer(self):
        q = EventQueue(capacity=2, policy="drop-newest")
        q.offer(("u", "p", 1))
        q.offer(("u", "p", 2))
        assert not q.offer(("u", "p", 3))
        assert [e[2] for e in q.drain(10)] == [1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            EventQueue(0)
        with pytest.raises(ValueError):
            EventQueue(1, policy="explode")

    def test_zero_and_negative_capacity_rejected(self):
        # A zero-capacity queue would make every offer bounce and every
        # drain empty — a silent black hole — so construction refuses it.
        for capacity in (0, -1, -100):
            with pytest.raises(ValueError, match="capacity"):
                EventQueue(capacity)

    def test_full_queue_drains_completely_at_shutdown(self):
        # Shutdown finds the buffer at capacity: everything admitted must
        # still come back out, under every policy.
        for policy in ("reject", "drop-oldest", "drop-newest"):
            q = EventQueue(capacity=4, policy=policy)
            for t in range(7):
                q.offer(("u", "p", t))
            assert q.is_full
            drained = q.drain(q.capacity)
            assert len(drained) == 4
            assert q.depth == 0 and not q.is_full
            assert q.drain(10) == []

    def test_reject_vs_drop_keep_different_ends_of_the_stream(self):
        # Same over-capacity stream, three survivor sets: reject and
        # drop-newest keep the oldest prefix, drop-oldest the newest
        # suffix — and every loss is counted either way.
        survivors = {}
        for policy in ("reject", "drop-oldest", "drop-newest"):
            q = EventQueue(capacity=3, policy=policy)
            for t in range(6):
                q.offer(("u", "p", t))
            assert q.offered == 6 and q.dropped == 3
            survivors[policy] = [e[2] for e in q.drain(10)]
        assert survivors["reject"] == [0, 1, 2]
        assert survivors["drop-newest"] == [0, 1, 2]
        assert survivors["drop-oldest"] == [3, 4, 5]

    def test_drain_nonpositive_budget_is_a_noop(self):
        q = EventQueue(capacity=4)
        q.offer(("u", "p", 1))
        assert q.drain(0) == []
        assert q.drain(-5) == []
        assert q.depth == 1


class TestWatermarkTracker:
    def test_watermark_trails_max_by_lateness(self):
        wm = WatermarkTracker(window_horizon=100, allowed_lateness=10)
        wm.observe(500)
        assert wm.watermark == 490 and wm.evict_cutoff == 390

    def test_monotone_under_out_of_order(self):
        wm = WatermarkTracker(window_horizon=100)
        wm.observe(500)
        wm.observe(300)
        assert wm.watermark == 500

    def test_admissibility(self):
        wm = WatermarkTracker(window_horizon=100)
        assert wm.is_admissible(0)          # no observations yet
        wm.observe(500)
        assert not wm.is_admissible(399)
        assert wm.is_admissible(400)

    def test_validation(self):
        with pytest.raises(ValueError):
            WatermarkTracker(0)
        with pytest.raises(ValueError):
            WatermarkTracker(10, allowed_lateness=-1)


class TestNdjsonStreaming:
    def test_parse_valid_record(self):
        rec = {"author": "a", "link_id": "t3_x", "created_utc": "7"}
        assert parse(rec) == [("a", "t3_x", 7)]

    @pytest.mark.parametrize(
        "rec",
        [
            {"author": "a", "link_id": "x"},                  # missing time
            {"author": "a", "created_utc": 1},                # missing page
            {"author": "a", "link_id": "x", "created_utc": "nan"},
            {"author": "a", "link_id": "x", "created_utc": None},
        ],
    )
    def test_parse_malformed_returns_none(self, rec):
        assert parse(rec) == []

    def test_iter_skips_malformed_and_counts(self):
        lines = [
            '{"author": "a", "link_id": "p", "created_utc": 1}',
            "not json",
            "",
            '{"author": "b", "created_utc": 2}',
            '{"author": "c", "link_id": "p", "created_utc": 3}',
        ]
        stats = IngestStats()
        events = list(iter_ndjson_events(lines, stats))
        assert [e[0] for e in events] == ["a", "c"]
        assert stats.total_lines == 4 and stats.malformed == 2

    @pytest.mark.parametrize(
        "rec",
        [
            {"author": "a", "link_id": None, "created_utc": 1},
            {"author": "a", "link_id": "", "created_utc": 1},
            {"author": None, "link_id": "p", "created_utc": 1},
            {"author": "", "link_id": "p", "created_utc": 1},
        ],
    )
    def test_null_or_empty_author_or_page_returns_none(self, rec):
        assert parse(rec) == []

    def test_page_is_a_string(self):
        rec = {"author": "a", "link_id": 7, "created_utc": 1}
        assert parse(rec) == [("a", "7", 1)]

    def test_iter_makes_no_phantom_page(self):
        lines = [
            '{"author": "a", "link_id": null, "created_utc": 1}',
            '{"author": "b", "link_id": null, "created_utc": 2}',
            '{"author": "c", "link_id": "", "created_utc": 3}',
            '{"author": "d", "link_id": "", "created_utc": 4}',
            '{"author": "e", "link_id": 9, "created_utc": 5}',
        ]
        stats = IngestStats()
        assert list(iter_ndjson_events(lines, stats)) == [("e", "9", 5)]
        assert stats.total_lines == 5 and stats.malformed == 4

    def test_iter_works_on_file_handle(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        path.write_text(
            '{"author": "a", "link_id": "p", "created_utc": 1}\n',
            encoding="utf-8",
        )
        with open(path, encoding="utf-8") as fh:
            assert list(iter_ndjson_events(fh)) == [("a", "p", 1)]
