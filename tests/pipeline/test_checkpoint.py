"""Checkpoint/resume and the YGM executor's retry policy."""

from contextlib import closing

import numpy as np
import pytest

from repro.exec import YgmExecutor
from repro.graph.filters import AuthorFilter
from repro.pipeline import (
    CheckpointMismatchError,
    CoordinationPipeline,
    PipelineCheckpoint,
    PipelineConfig,
)
from repro.projection import TimeWindow
from repro.ygm import FaultPlan, WorkerDiedError, YgmWorld


def _config(**kwargs) -> PipelineConfig:
    return PipelineConfig(
        window=TimeWindow(0, 60), min_triangle_weight=5, **kwargs
    )


def assert_results_equal(ref, got):
    """Element-for-element equality of everything the paper reports."""
    assert got.ci.edges.to_dict() == ref.ci.edges.to_dict()
    assert np.array_equal(got.ci.page_counts, ref.ci.page_counts)
    assert got.ci_thresholded.edges.to_dict() == ref.ci_thresholded.edges.to_dict()
    for fld in ("a", "b", "c", "w_ab", "w_ac", "w_bc"):
        assert np.array_equal(
            getattr(got.triangles, fld), getattr(ref.triangles, fld)
        ), fld
    assert np.array_equal(got.t_scores, ref.t_scores)
    assert [c.members for c in got.components] == [
        c.members for c in ref.components
    ]
    assert [c.member_names for c in got.components] == [
        c.member_names for c in ref.components
    ]
    if ref.triplet_metrics is not None:
        assert np.array_equal(
            got.triplet_metrics.w_xyz, ref.triplet_metrics.w_xyz
        )
        assert np.array_equal(
            got.triplet_metrics.c_scores, ref.triplet_metrics.c_scores
        )
    assert got.stats["triangles"] == ref.stats["triangles"]
    assert got.stats["thresholded_edges"] == ref.stats["thresholded_edges"]


class TestCheckpointResume:
    def test_checkpointed_run_equals_plain_run(self, small_dataset, tmp_path):
        pipe = CoordinationPipeline(_config())
        ref = pipe.run(small_dataset.btm)
        got = pipe.run(small_dataset.btm, checkpoint_dir=str(tmp_path))
        assert_results_equal(ref, got)
        assert got.resumed_stages == ()
        cp = PipelineCheckpoint(tmp_path)
        cp.resume(pipe.config)
        assert cp.completed_stages() == ("ci", "ci_thr", "triangles")

    def test_resume_skips_stages_and_matches_exactly(
        self, small_dataset, tmp_path
    ):
        pipe = CoordinationPipeline(_config())
        ref = pipe.run(small_dataset.btm)
        pipe.run(small_dataset.btm, checkpoint_dir=str(tmp_path))
        resumed = pipe.run(small_dataset.btm, resume_from=str(tmp_path))
        assert resumed.resumed_stages == (
            "step1.project",
            "step2.threshold",
            "step2.survey",
        )
        assert_results_equal(ref, resumed)

    def test_partial_checkpoint_recomputes_missing_stages(
        self, small_dataset, tmp_path
    ):
        pipe = CoordinationPipeline(_config())
        ref = pipe.run(small_dataset.btm, checkpoint_dir=str(tmp_path))
        # Simulate a run that died after Step 1: drop the later artifacts.
        (tmp_path / "triangles.npz").unlink()
        (tmp_path / "ci_thr.npz").unlink()
        resumed = pipe.run(small_dataset.btm, resume_from=str(tmp_path))
        assert resumed.resumed_stages == ("step1.project",)
        assert_results_equal(ref, resumed)

    @pytest.mark.parametrize(
        "other",
        [
            PipelineConfig(window=TimeWindow(0, 120), min_triangle_weight=5),
            # Same window and cutoff: only the author filter differs, and
            # the filter decides which comments Step 1 projected.
            _config(author_filter=AuthorFilter.none()),
        ],
        ids=["win", "flt"],
    )
    def test_resume_under_different_config_refuses(
        self, small_dataset, tmp_path, other
    ):
        CoordinationPipeline(_config()).run(
            small_dataset.btm, checkpoint_dir=str(tmp_path)
        )
        with pytest.raises(CheckpointMismatchError, match="different config"):
            CoordinationPipeline(other).run(
                small_dataset.btm, resume_from=str(tmp_path)
            )

    def test_resume_from_empty_dir_refuses(self, small_dataset, tmp_path):
        with pytest.raises(CheckpointMismatchError, match="no checkpoint"):
            CoordinationPipeline(_config()).run(
                small_dataset.btm, resume_from=str(tmp_path)
            )

    def test_fresh_checkpoint_dir_clears_stale_manifest(
        self, small_dataset, tmp_path
    ):
        pipe = CoordinationPipeline(_config())
        pipe.run(small_dataset.btm, checkpoint_dir=str(tmp_path))
        # A fresh (non-resume) run into the same dir must not trust the old
        # stage flags.
        got = pipe.run(small_dataset.btm, checkpoint_dir=str(tmp_path))
        assert got.resumed_stages == ()


@pytest.mark.faults
class TestYgmExecutorRetry:
    """The retry policy lives behind the executor seam: the pipeline only
    reports how many re-attempts its run cost."""

    def test_worker_death_costs_one_plan_run_not_the_pipeline(
        self, small_dataset, tmp_path
    ):
        """Crash rank 1 on the first attempt; the retry (fresh backend)
        must complete with results identical to the serial run."""
        pipe = CoordinationPipeline(_config())
        ref = pipe.run(small_dataset.btm)
        made = []

        def factory(attempt):
            plan = (
                FaultPlan.single("crash", rank=1, at_message=4)
                if attempt == 0
                else None
            )
            world = YgmWorld(2, backend="mp", fault_plan=plan,
                             barrier_deadline=60.0)
            made.append(world)
            return world

        with closing(
            YgmExecutor(world_factory=factory, max_retries=2, retry_backoff=0.01)
        ) as executor:
            got = pipe.run(
                small_dataset.btm,
                executor=executor,
                checkpoint_dir=str(tmp_path),
            )
        assert got.stage_retries == 1
        assert got.stats["stage_retries"] == 1
        assert len(made) == 2
        assert_results_equal(ref, got)
        # Every executor-owned world was torn down, dead or alive.
        for world in made:
            assert all(not w.is_alive() for w in world.backend._workers)

    @staticmethod
    def _always_faulty(calls):
        def factory(attempt):
            # Serial backend with a simulated crash: fast and deterministic.
            calls.append(attempt)
            return YgmWorld(
                2, fault_plan=FaultPlan.single("crash", rank=0, at_message=2)
            )

        return factory

    def test_retries_exhausted_reraises_typed(self, small_dataset):
        calls = []
        with closing(
            YgmExecutor(
                world_factory=self._always_faulty(calls),
                max_retries=1,
                retry_backoff=0.01,
            )
        ) as executor:
            with pytest.raises(WorkerDiedError):
                CoordinationPipeline(_config()).run(
                    small_dataset.btm, executor=executor
                )
        assert calls == [0, 1] and executor.retries == 1

    def test_no_retry_unless_asked(self, small_dataset):
        calls = []
        with closing(
            YgmExecutor(world_factory=self._always_faulty(calls))
        ) as executor:
            with pytest.raises(WorkerDiedError):
                CoordinationPipeline(_config()).run(
                    small_dataset.btm, executor=executor
                )
        assert calls == [0]

    def test_borrowed_world_is_never_replaced(self, small_dataset):
        plan = FaultPlan.single("crash", rank=0, at_message=2)
        with YgmWorld(2, fault_plan=plan) as world:
            executor = YgmExecutor(world, max_retries=3)
            with pytest.raises(WorkerDiedError):
                CoordinationPipeline(_config()).run(
                    small_dataset.btm, executor=executor
                )
            assert executor.retries == 0 and executor.world is world

    def test_world_and_factory_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            YgmExecutor()
        with YgmWorld(2) as world:
            with pytest.raises(ValueError, match="exactly one"):
                YgmExecutor(world, world_factory=lambda k: world)

    def test_ygm_resume_after_serial_checkpoint(self, small_dataset, tmp_path):
        """Checkpoints are executor-agnostic: a serial run's artifacts
        resume on the YGM executor and vice versa."""
        pipe = CoordinationPipeline(_config())
        ref = pipe.run(small_dataset.btm, checkpoint_dir=str(tmp_path))
        with YgmWorld(2) as world:
            got = pipe.run(
                small_dataset.btm,
                executor=YgmExecutor(world),
                resume_from=str(tmp_path),
            )
        assert "step1.project" in got.resumed_stages
        assert_results_equal(ref, got)
