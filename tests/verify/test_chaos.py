"""Chaos parity: seeded fault plans must never break exactness.

Every scenario asserts the same two-part contract from
:mod:`repro.verify.chaos`: the faulted run completes or fails *typed*,
and the recovered (or untouched) result matches the serial oracle
element for element.
"""

import pytest

from repro.datagen import BackgroundConfig, GptStyleBotnetConfig, RedditDatasetBuilder
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow
from repro.verify import diff_results, run_chaos
from repro.verify import chaos
from repro.ygm import FaultPlan, WorkerDiedError

pytestmark = pytest.mark.faults

WINDOW = TimeWindow(0, 60)


@pytest.fixture(scope="module")
def chaos_comments():
    """A compact corpus with one coordinated botnet (fast chaos loops)."""
    ds = (
        RedditDatasetBuilder(seed=41)
        .with_background(
            BackgroundConfig(n_users=150, n_pages=200, n_comments=2000)
        )
        .with_gpt_style_botnet(
            GptStyleBotnetConfig(n_bots=6, n_mixed_pages=40, n_self_pages=8)
        )
        .build()
    )
    return [r.as_triple() for r in ds.records]


class TestChaosSerial:
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_plans_hold_parity(self, chaos_comments, seed, tmp_path):
        report = run_chaos(
            chaos_comments,
            WINDOW,
            seed=seed,
            backend="serial",
            checkpoint_dir=str(tmp_path),
        )
        assert report.facts["first_attempt"] != "failed-untyped", report.describe()
        assert report.ok, report.describe()

    def test_crash_plan_fails_typed_then_recovers(
        self, chaos_comments, tmp_path
    ):
        report = run_chaos(
            chaos_comments,
            WINDOW,
            backend="serial",
            fault_plan=FaultPlan.single("crash", rank=0, at_message=3),
            checkpoint_dir=str(tmp_path),
        )
        assert report.facts["first_attempt"] == "failed-typed"
        assert "WorkerDiedError" in report.facts["error"]
        assert report.facts["resumed"]
        assert report.ok, report.describe()
        assert "CHAOS PARITY OK" in report.describe()

    def test_delay_plan_completes_without_resume(
        self, chaos_comments, tmp_path
    ):
        report = run_chaos(
            chaos_comments,
            WINDOW,
            backend="serial",
            fault_plan=FaultPlan.single(
                "delay", rank=1, at_message=2, seconds=0.01
            ),
            checkpoint_dir=str(tmp_path),
        )
        assert report.facts["first_attempt"] == "completed"
        assert not report.facts["resumed"]
        assert report.ok, report.describe()


class TestChaosMultiprocessing:
    def test_real_worker_crash_recovers_exactly(self, chaos_comments, tmp_path):
        """SIGKILL a real worker process mid-run; resume must equal oracle."""
        report = run_chaos(
            chaos_comments,
            WINDOW,
            backend="mp",
            fault_plan=FaultPlan.single("crash", rank=1, at_message=5),
            barrier_deadline=30.0,
            checkpoint_dir=str(tmp_path),
        )
        assert report.facts["first_attempt"] == "failed-typed", report.describe()
        assert "rank 1" in report.facts["error"]
        assert report.facts["resumed"]
        assert report.ok, report.describe()


class TestTypedVerdict:
    """The first-attempt line names a typed failure by the fields the run's
    inputs fix; the in-flight count read at detection depends on timing."""

    @staticmethod
    def _first_attempt_line(comments, tmp_path, monkeypatch, in_flight):
        class DiesAfterCheckpointing(CoordinationPipeline):
            def run(self, btm, **kwargs):
                result = super().run(btm, **kwargs)
                if "checkpoint_dir" in kwargs:
                    raise WorkerDiedError(1, -9, in_flight, "barrier")
                return result

        monkeypatch.setattr(chaos, "CoordinationPipeline", DiesAfterCheckpointing)
        cp_dir = tmp_path / f"in-flight-{in_flight}"
        cp_dir.mkdir()
        report = run_chaos(
            comments, WINDOW, backend="serial", checkpoint_dir=str(cp_dir)
        )
        assert report.ok, report.describe()
        return report.describe().splitlines()[1]

    def test_in_flight_count_stays_out_of_the_verdict(
        self, chaos_comments, tmp_path, monkeypatch
    ):
        five, six = (
            self._first_attempt_line(chaos_comments, tmp_path, monkeypatch, n)
            for n in (5, 6)
        )
        assert five == six
        assert five == (
            "  first attempt: failed-typed — "
            "WorkerDiedError: rank 1, exitcode -9, phase barrier"
        )


class TestDiffResults:
    def test_detects_divergence(self, chaos_comments):
        from repro.graph import BipartiteTemporalMultigraph

        btm = BipartiteTemporalMultigraph.from_comments(list(chaos_comments))
        a = CoordinationPipeline(
            PipelineConfig(window=WINDOW, min_triangle_weight=5)
        ).run(btm)
        b = CoordinationPipeline(
            PipelineConfig(window=WINDOW, min_triangle_weight=3)
        ).run(btm)
        assert diff_results(a, a) == []
        assert diff_results(a, b) != []

    def test_one_ulp_in_t_scores_is_a_divergence(self, chaos_comments):
        """The contract is bit-for-bit: no tolerance in the check."""
        import dataclasses

        import numpy as np

        from repro.graph import BipartiteTemporalMultigraph

        btm = BipartiteTemporalMultigraph.from_comments(list(chaos_comments))
        ref = CoordinationPipeline(
            PipelineConfig(window=WINDOW, min_triangle_weight=5)
        ).run(btm)
        assert ref.t_scores.size
        nudged = ref.t_scores.copy()
        nudged[0] = np.nextafter(nudged[0], np.inf)
        got = dataclasses.replace(ref, t_scores=nudged)
        assert diff_results(ref, got) == ["T scores differ"]
