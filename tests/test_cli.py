"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small generated corpus + truth file shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ndjson = root / "corpus.ndjson"
    truth = root / "truth.json"
    out = io.StringIO()
    code = main(
        [
            "generate",
            "--preset",
            "oct2016",
            "--seed",
            "5",
            "--scale",
            "0.15",
            "--out",
            str(ndjson),
            "--truth",
            str(truth),
        ],
        out=out,
    )
    assert code == 0
    return ndjson, truth


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect", "--input", "x"])
        assert args.delta2 == 60 and args.cutoff == 25
        assert not args.no_filter

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestGenerate:
    def test_files_written(self, corpus):
        ndjson, truth = corpus
        first = json.loads(ndjson.read_text().splitlines()[0])
        assert {"author", "link_id", "created_utc"} <= set(first)
        truth_data = json.loads(truth.read_text())
        assert "election" in truth_data["botnets"]
        assert "AutoModerator" in truth_data["helpful"]

    def test_deterministic_for_seed(self, tmp_path):
        outs = []
        for i in range(2):
            path = tmp_path / f"c{i}.ndjson"
            main(
                [
                    "generate",
                    "--preset",
                    "jan2020",
                    "--seed",
                    "9",
                    "--scale",
                    "0.05",
                    "--out",
                    str(path),
                ],
                out=io.StringIO(),
            )
            outs.append(path.read_text())
        assert outs[0] == outs[1]


class TestRecommend:
    def test_prints_candidates(self, corpus):
        ndjson, _ = corpus
        out = io.StringIO()
        assert main(["recommend", "--input", str(ndjson)], out=out) == 0
        text = out.getvalue()
        assert "delay profile" in text
        assert "(0s, 60s)" in text  # floor window always present


class TestDetect:
    def test_detects_and_scores(self, corpus, tmp_path):
        ndjson, truth = corpus
        out = io.StringIO()
        code = main(
            [
                "detect",
                "--input",
                str(ndjson),
                "--delta2",
                "600",
                "--cutoff",
                "10",
                "--truth",
                str(truth),
                "--export-dot",
                str(tmp_path / "dots"),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "pipeline run" in text
        assert "election" in text and "P=" in text
        assert list((tmp_path / "dots").glob("*.dot"))

    def test_no_filter_flag(self, corpus):
        ndjson, _ = corpus
        out = io.StringIO()
        main(
            [
                "detect",
                "--input",
                str(ndjson),
                "--no-filter",
                "--no-hypergraph",
                "--cutoff",
                "10",
            ],
            out=out,
        )
        assert "removed 0 authors" in out.getvalue()

    def test_skip_malformed_flag(self, corpus, tmp_path):
        ndjson, _ = corpus
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text(ndjson.read_text() + "not json\n{broken\n")
        sidecar = tmp_path / "rejects.ndjson"
        out = io.StringIO()
        code = main(
            [
                "detect",
                "--input",
                str(dirty),
                "--skip-malformed",
                "--quarantine",
                str(sidecar),
                "--cutoff",
                "10",
                "--no-hypergraph",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "skipped 2 malformed record(s)" in text
        assert str(sidecar) in text
        assert len(sidecar.read_text().splitlines()) == 2

    @pytest.mark.parametrize("command", ["detect", "figures"])
    def test_quarantine_requires_skip_malformed(self, corpus, tmp_path, command):
        ndjson, _ = corpus
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text(ndjson.read_text() + "not json\n")
        out = io.StringIO()
        code = main(
            [command, "--input", str(dirty), "--quarantine", str(tmp_path / "q")],
            out=out,
        )
        assert code == 2
        assert out.getvalue() == "--quarantine requires --skip-malformed\n"

    def test_layers_skip_message_names_sidecar(self, corpus, tmp_path):
        ndjson, _ = corpus
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text(ndjson.read_text() + "not json\n")
        sidecar = tmp_path / "rejects.ndjson"
        out = io.StringIO()
        code = main(
            ["detect", "--input", str(dirty), "--layers", "page",
             "--skip-malformed", "--quarantine", str(sidecar),
             "--cutoff", "10", "--no-hypergraph"],
            out=out,
        )
        assert code == 0
        assert "skipped 1 malformed record(s) of " in out.getvalue()
        assert f"(quarantined to {sidecar})" in out.getvalue()

    def test_malformed_aborts_without_flag(self, corpus, tmp_path):
        ndjson, _ = corpus
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text(ndjson.read_text() + "not json\n")
        with pytest.raises(ValueError, match="malformed JSON"):
            main(
                ["detect", "--input", str(dirty), "--no-hypergraph"],
                out=io.StringIO(),
            )

    def test_bucketed_projection_flag(self, corpus):
        ndjson, _ = corpus
        out = io.StringIO()
        code = main(
            [
                "detect",
                "--input",
                str(ndjson),
                "--delta2",
                "120",
                "--buckets",
                "60",
                "--cutoff",
                "10",
                "--no-hypergraph",
            ],
            out=out,
        )
        assert code == 0
        assert "buckets=60s" in out.getvalue()

    def test_non_numeric_layer_weight_exits_2(self, corpus):
        ndjson, _ = corpus
        out = io.StringIO()
        code = main(
            ["detect", "--input", str(ndjson), "--layers", "page",
             "--layer-weights", "page=abc"],
            out=out,
        )
        assert code == 2
        assert out.getvalue() == (
            "bad --layer-weights entry 'page=abc' (want name=weight)\n"
        )

    def test_layer_weights_without_layers_exits_2(self, corpus):
        ndjson, _ = corpus
        out = io.StringIO()
        code = main(
            ["detect", "--input", str(ndjson), "--layer-weights", "page=2"],
            out=out,
        )
        assert code == 2
        assert out.getvalue() == "--layer-weights requires --layers LIST\n"


class TestVerify:
    def test_parity_smoke(self):
        # Tier-1 smoke test: all four projection engines and all three
        # triangle engines agree exactly on a generated corpus.
        out = io.StringIO()
        code = main(
            ["verify", "--seed", "3", "--scale", "0.04"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "PARITY OK" in text
        assert "invariants ok" in text

    @pytest.mark.faults
    def test_chaos_mode(self):
        out = io.StringIO()
        code = main(
            [
                "verify",
                "--chaos",
                "--seed",
                "3",
                "--scale",
                "0.03",
                "--chaos-backend",
                "serial",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "chaos run: seed 3" in text
        assert "CHAOS PARITY OK" in text

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.seed == 0 and args.preset == "oct2016"
        assert args.delta1 == 0 and args.delta2 == 60


class TestFigures:
    def test_renders_both_families(self, corpus):
        ndjson, _ = corpus
        out = io.StringIO()
        code = main(
            [
                "figures",
                "--input",
                str(ndjson),
                "--delta2",
                "600",
                "--cutoff",
                "10",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "C vs T" in text and "w_xyz vs min w'" in text
        assert "pearson=" in text
