"""The benchmark-regression gate: policy, skips, and failure modes."""

import json

import pytest

from repro.verify.bench_gate import (
    TruncatedResultError,
    main,
    run_gate,
    update_baselines,
)

KERNELS = {
    "scale": "tiny",
    "n_rows": 400,
    "kernels": {
        "cooccur_pairs": {
            "kernel_seconds": 0.05,
            "reference_seconds": 2.0,
            "speedup": 40.0,
        },
        "window_bounds": {
            # Below the 0.01s noise floor on the slow side: the speedup
            # ratio is noise and must be skipped, the seconds still gated.
            "kernel_seconds": 0.0002,
            "reference_seconds": 0.005,
            "speedup": 25.0,
        },
    },
}

LAYERS = {
    "scale": "tiny",
    "n_records": 4_000,
    "extract": {"seconds": 0.08},
    "layers": {
        "page": {"events": 4_000, "seconds": 0.40},
        "link": {"events": 700, "seconds": 0.05},
    },
    "fuse": {"seconds": 0.02, "overhead_ratio": 0.05},
    "recovery_floor": 0.9,
    "recovery": {
        "restream": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
        "linkspam": {"precision": 0.95, "recall": 1.0, "f1": 0.97},
    },
}


@pytest.fixture
def dirs(tmp_path):
    base = tmp_path / "baselines"
    res = tmp_path / "results"
    base.mkdir()
    res.mkdir()
    return base, res


def _write(d, name, payload):
    (d / name).write_text(json.dumps(payload), encoding="utf-8")


def _deep(payload):
    return json.loads(json.dumps(payload))


class TestGatePolicy:
    def test_identical_results_pass(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        _write(res, "BENCH_kernels.json", KERNELS)
        _write(base, "BENCH_layers.json", LAYERS)
        _write(res, "BENCH_layers.json", LAYERS)
        report = run_gate(base, res)
        assert report.ok, report.describe()
        assert "GATE OK" in report.describe()
        assert [c.name for c in report.checks] == [
            "kernels[cooccur_pairs].kernel_seconds",
            "kernels[window_bounds].kernel_seconds",
            "kernels[cooccur_pairs].speedup",
            "layers.extract.seconds",
            "layers[page].seconds",
            "layers[link].seconds",
            "layers.fuse.seconds",
        ]

    def test_seconds_regression_fails(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        # 3x slowdown: far outside tolerance + noise floor.
        fresh["kernels"]["cooccur_pairs"]["kernel_seconds"] = 0.15
        _write(res, "BENCH_kernels.json", fresh)
        report = run_gate(base, res)
        assert not report.ok
        assert any(
            "cooccur_pairs" in c.name and c.kind == "seconds"
            for c in report.failures
        )

    def test_seconds_within_tolerance_pass(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        fresh["kernels"]["cooccur_pairs"]["kernel_seconds"] = 0.06  # +20%
        _write(res, "BENCH_kernels.json", fresh)
        assert run_gate(base, res).ok

    def test_noise_floor_absorbs_tiny_jitter(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        # 10x relative but only +1.8ms absolute: under the floor.
        fresh["kernels"]["window_bounds"]["kernel_seconds"] = 0.002
        _write(res, "BENCH_kernels.json", fresh)
        assert run_gate(base, res).ok

    def test_speedup_regression_fails(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        fresh["kernels"]["cooccur_pairs"]["speedup"] = 10.0  # was 40x
        _write(res, "BENCH_kernels.json", fresh)
        report = run_gate(base, res)
        assert any(
            "cooccur_pairs" in c.name and c.kind == "speedup"
            for c in report.failures
        )

    def test_sub_unity_speedup_is_still_gated(self, dirs):
        # A kernel slower than its twin (pair_weights is 0.22x at tiny
        # scale) still has a ratio to lose: below 1x is not a skip.
        base, res = dirs
        slow = _deep(KERNELS)
        slow["kernels"]["cooccur_pairs"].update(
            kernel_seconds=0.04, reference_seconds=0.02, speedup=0.5
        )
        _write(base, "BENCH_kernels.json", slow)
        fresh = _deep(slow)
        fresh["kernels"]["cooccur_pairs"]["speedup"] = 0.2
        _write(res, "BENCH_kernels.json", fresh)
        report = run_gate(base, res)
        assert [c.name for c in report.failures] == [
            "kernels[cooccur_pairs].speedup"
        ]

    def test_speedup_below_noise_floor_skipped(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        fresh["kernels"]["window_bounds"]["speedup"] = 1.0  # was 25x
        _write(res, "BENCH_kernels.json", fresh)
        report = run_gate(base, res)
        assert report.ok
        assert any("window_bounds" in s for s in report.skipped)

    def test_faster_fresh_run_always_passes(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        fresh["kernels"]["cooccur_pairs"]["kernel_seconds"] = 0.01
        fresh["kernels"]["cooccur_pairs"]["speedup"] = 200.0
        _write(res, "BENCH_kernels.json", fresh)
        assert run_gate(base, res).ok


class TestLayersPolicy:
    def test_layer_seconds_regression_fails(self, dirs):
        base, res = dirs
        _write(base, "BENCH_layers_smoke.json", LAYERS)
        fresh = _deep(LAYERS)
        fresh["layers"]["page"]["seconds"] = 0.40 * 2
        _write(res, "BENCH_layers_smoke.json", fresh)
        report = run_gate(base, res)
        assert [c.name for c in report.failures] == ["layers[page].seconds"]

    def test_recovery_floor_is_absolute(self, dirs):
        # Even a fresh run that matches its baseline fails when the
        # committed claim itself is broken: a planted net below the floor.
        base, res = dirs
        broken = _deep(LAYERS)
        broken["recovery"]["linkspam"]["recall"] = 0.6
        _write(base, "BENCH_layers_smoke.json", broken)
        _write(res, "BENCH_layers_smoke.json", broken)
        report = run_gate(base, res)
        assert not report.ok and not report.failures
        assert report.errors == [
            "layers.recovery[linkspam].recall: 0.60 below the committed "
            "0.9 floor"
        ]

    def test_planted_net_missing_from_fresh_is_an_error(self, dirs):
        base, res = dirs
        _write(base, "BENCH_layers_smoke.json", LAYERS)
        fresh = _deep(LAYERS)
        del fresh["recovery"]["restream"]
        _write(res, "BENCH_layers_smoke.json", fresh)
        report = run_gate(base, res)
        assert any(
            "recovery[restream]" in e and "missing from fresh" in e
            for e in report.errors
        )

    def test_scale_mismatch_is_an_error(self, dirs):
        base, res = dirs
        _write(base, "BENCH_layers_smoke.json", LAYERS)
        fresh = _deep(LAYERS)
        fresh["scale"] = "full"
        _write(res, "BENCH_layers_smoke.json", fresh)
        report = run_gate(base, res)
        assert any("scale mismatch" in e for e in report.errors)
        assert not report.checks


class TestRequiredVsOptionalBaselines:
    def test_optional_fullscale_baseline_skips_when_fresh_missing(self, dirs):
        base, res = dirs
        _write(base, "BENCH_layers.json", LAYERS)
        report = run_gate(base, res)
        assert report.ok
        assert any("optional baseline" in s for s in report.skipped)

    def test_required_smoke_baseline_errors_when_fresh_missing(self, dirs):
        base, res = dirs
        _write(base, "BENCH_layers_smoke.json", LAYERS)
        report = run_gate(base, res)
        assert not report.ok
        assert any(
            "BENCH_layers_smoke" in e and "did not run" in e
            for e in report.errors
        )

    def test_smoke_and_full_share_rules(self, dirs):
        base, res = dirs
        fresh = _deep(LAYERS)
        fresh["fuse"]["seconds"] = 0.5
        for name in ("BENCH_layers_smoke.json", "BENCH_layers.json"):
            _write(base, name, LAYERS)
            _write(res, name, fresh)
        report = run_gate(base, res)
        assert [c.name for c in report.failures] == ["layers.fuse.seconds"] * 2


class TestGateErrors:
    def test_missing_fresh_file_is_an_error(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        report = run_gate(base, res)
        assert not report.ok
        assert any("did not run" in e for e in report.errors)

    def test_truncated_fresh_file_names_the_atomic_contract(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        (res / "BENCH_kernels.json").write_text(
            '{"scale": "tiny", "kernels": {"coo', encoding="utf-8"
        )
        report = run_gate(base, res)
        assert not report.ok
        assert any("atomic" in e for e in report.errors)

    def test_scale_mismatch_is_an_error(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        fresh["scale"] = "full"
        _write(res, "BENCH_kernels.json", fresh)
        report = run_gate(base, res)
        assert not report.ok
        assert any("scale mismatch" in e for e in report.errors)

    def test_empty_baseline_dir_is_an_error(self, dirs):
        base, res = dirs
        assert not run_gate(base, res).ok

    def test_metric_missing_from_fresh_is_an_error(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        fresh = _deep(KERNELS)
        del fresh["kernels"]["window_bounds"]
        _write(res, "BENCH_kernels.json", fresh)
        report = run_gate(base, res)
        assert (
            "kernels[window_bounds].kernel_seconds: missing from fresh results"
            in report.errors
        )

    def test_unknown_baseline_file_is_skipped(self, dirs):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        _write(res, "BENCH_kernels.json", KERNELS)
        _write(base, "BENCH_mystery.json", {"scale": "tiny"})
        report = run_gate(base, res)
        assert report.ok
        assert any("no rules registered" in s for s in report.skipped)


class TestUpdateAndCli:
    def test_update_copies_fresh_over_baselines(self, dirs):
        base, res = dirs
        fresh = _deep(KERNELS)
        fresh["kernels"]["cooccur_pairs"]["kernel_seconds"] = 0.01
        _write(res, "BENCH_kernels.json", fresh)
        updated = update_baselines(base, res)
        assert updated == ["BENCH_kernels.json"]
        blessed = json.loads(
            (base / "BENCH_kernels.json").read_text(encoding="utf-8")
        )
        assert blessed["kernels"]["cooccur_pairs"]["kernel_seconds"] == 0.01

    def test_update_refuses_truncated_results(self, dirs):
        base, res = dirs
        (res / "BENCH_kernels.json").write_text("{nope", encoding="utf-8")
        with pytest.raises(TruncatedResultError):
            update_baselines(base, res)

    def test_main_exit_codes(self, dirs, capsys):
        base, res = dirs
        _write(base, "BENCH_kernels.json", KERNELS)
        _write(res, "BENCH_kernels.json", KERNELS)
        argv = ["--baseline-dir", str(base), "--results-dir", str(res)]
        assert main(argv) == 0
        fresh = _deep(KERNELS)
        fresh["kernels"]["cooccur_pairs"]["kernel_seconds"] = 9.0
        _write(res, "BENCH_kernels.json", fresh)
        assert main(argv) == 1
        assert "GATE FAILED" in capsys.readouterr().out

    def test_main_update_flag(self, dirs, capsys):
        base, res = dirs
        _write(res, "BENCH_kernels.json", KERNELS)
        argv = [
            "--baseline-dir", str(base), "--results-dir", str(res), "--update"
        ]
        assert main(argv) == 0
        assert (base / "BENCH_kernels.json").exists()
