"""Recovery chaos matrix: SIGKILL × file damage → bit-identical recovery.

Every scenario runs :func:`repro.verify.chaos.run_recovery_chaos`: a
child process drives the durable service and SIGKILLs itself at a chosen
event index, the harness optionally damages what survived (torn journal
tail, corrupt newest snapshot), and recovery must reproduce the serial
oracle exactly — then resume the stream tail and land bit-identical to
an uninterrupted run.
"""

import random

import pytest

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow
from repro.store import CorruptSnapshotError, TornWalError  # noqa: F401 (docs)
from repro.verify import run_recovery_chaos

pytestmark = pytest.mark.faults

CONFIG = PipelineConfig(
    window=TimeWindow(0, 120),
    min_triangle_weight=1,
    min_component_size=2,
    author_filter=AuthorFilter.none(),
)

KILL_POINTS = (300, 700, 1100)
CORRUPTIONS = ("none", "torn-tail", "corrupt-snapshot")


@pytest.fixture(scope="module")
def chaos_events():
    rng = random.Random(23)
    return [
        (
            "u%d" % rng.randrange(30),
            "p%d" % rng.randrange(10),
            rng.randrange(0, 3000),
        )
        for _ in range(1200)
    ]


class TestRecoveryMatrix:
    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    @pytest.mark.parametrize("kill_at", KILL_POINTS)
    def test_kill_damage_recover_exactly(
        self, chaos_events, kill_at, corruption, tmp_path
    ):
        report = run_recovery_chaos(
            chaos_events,
            CONFIG,
            kill_at=kill_at,
            corruption=corruption,
            snapshot_every=6,
            batch_size=32,
            window_horizon=1500,
            allowed_lateness=20,
            directory=str(tmp_path),
        )
        assert report.facts["child_exit"] == -9, "child must die to the planned SIGKILL"
        assert report.ok, report.describe()
        if corruption == "torn-tail":
            assert report.facts["torn_tail"], "injected torn tail must be reported"
        if corruption == "corrupt-snapshot" and report.facts["applied_seq"] > 12:
            # Once several generations exist, the damaged newest one must
            # have been skipped via fallback to an older valid one.  (With
            # a single generation the fallback is a full-journal replay
            # and no skip is reported.)
            assert report.facts["snapshots_skipped"] >= 1


class TestRecoveryEdges:
    def test_kill_before_first_snapshot(self, chaos_events, tmp_path):
        """Death inside the first snapshot interval: pure WAL replay."""
        report = run_recovery_chaos(
            chaos_events,
            CONFIG,
            kill_at=100,
            corruption="none",
            snapshot_every=1000,
            batch_size=32,
            window_horizon=1500,
            allowed_lateness=20,
            directory=str(tmp_path),
        )
        assert report.ok, report.describe()
        assert report.facts["records_replayed"] == report.facts["applied_seq"]

    def test_fsync_always_survives_too(self, chaos_events, tmp_path):
        report = run_recovery_chaos(
            chaos_events[:600],
            CONFIG,
            kill_at=400,
            corruption="torn-tail",
            fsync="always",
            snapshot_every=6,
            batch_size=32,
            window_horizon=1500,
            allowed_lateness=20,
            directory=str(tmp_path),
        )
        assert report.ok, report.describe()

    def test_report_describe_mentions_verdict(self, chaos_events, tmp_path):
        report = run_recovery_chaos(
            chaos_events[:400],
            CONFIG,
            kill_at=300,
            corruption="none",
            snapshot_every=6,
            batch_size=32,
            window_horizon=1500,
            allowed_lateness=20,
            directory=str(tmp_path),
        )
        assert "RECOVERY PARITY OK" in report.describe()
