"""End-to-end tests for the ``serve`` CLI subcommand (and verify --online)."""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph.io import write_comments_ndjson

pytestmark = pytest.mark.serve

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def write_corpus(path, comments):
    write_comments_ndjson(
        path,
        (
            {"author": a, "link_id": p, "created_utc": t}
            for a, p, t in comments
        ),
    )


TRIANGLE_STREAM = [
    ("a", "p", 0), ("b", "p", 10), ("c", "p", 20),
    ("a", "q", 100), ("b", "q", 110), ("c", "q", 120),
]


class TestServeCommand:
    def test_end_to_end_over_file(self, tmp_path):
        corpus = tmp_path / "stream.ndjson"
        write_corpus(corpus, TRIANGLE_STREAM)
        out = io.StringIO()
        code = main(
            [
                "serve", "--input", str(corpus), "--cutoff", "1",
                "--horizon", "100000", "--no-filter", "--top", "3",
                "--metrics-every", "1",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "shutdown (end of stream): 6 events consumed" in text
        assert "a / b / c" in text
        assert "counters:" in text and "engine.update" in text

    def test_no_hypergraph_prints_no_step3_columns(self, tmp_path):
        corpus = tmp_path / "tri.ndjson"
        write_corpus(corpus, TRIANGLE_STREAM[:3])
        out = io.StringIO()
        code = main(
            [
                "serve", "--input", str(corpus), "--cutoff", "1",
                "--no-filter", "--no-hypergraph", "--metrics-every", "1",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "a / b / c  min_w'=1 T=1.0000\n" in text
        assert "w_xyz" not in text and " C=" not in text

    def test_status_json_snapshot(self, tmp_path):
        corpus = tmp_path / "stream.ndjson"
        write_corpus(corpus, TRIANGLE_STREAM)
        status_path = tmp_path / "status.json"
        out = io.StringIO()
        code = main(
            [
                "serve", "--input", str(corpus), "--cutoff", "1",
                "--horizon", "100000", "--no-filter",
                "--metrics-every", "0",
                "--status-json", str(status_path),
            ],
            out=out,
        )
        assert code == 0
        status = json.loads(status_path.read_text(encoding="utf-8"))
        assert status["live_comments"] == 6
        assert status["triangles"] == 1
        assert status["metrics"]["counters"]["engine.events_ingested"] == 6

    def test_window_slides_and_max_events(self, tmp_path):
        corpus = tmp_path / "stream.ndjson"
        far_future = [("x", "z", 10**6)]
        write_corpus(corpus, TRIANGLE_STREAM + far_future)
        out = io.StringIO()
        code = main(
            [
                "serve", "--input", str(corpus), "--cutoff", "1",
                "--horizon", "500", "--no-filter", "--metrics-every", "0",
            ],
            out=out,
        )
        assert code == 0
        assert "live=1" in out.getvalue()       # only the future event left

        out = io.StringIO()
        code = main(
            [
                "serve", "--input", str(corpus), "--cutoff", "1",
                "--horizon", "500", "--no-filter", "--metrics-every", "0",
                "--max-events", "3",
            ],
            out=out,
        )
        assert code == 0
        assert "3 events consumed" in out.getvalue()

    def test_malformed_lines_survive(self, tmp_path):
        corpus = tmp_path / "stream.ndjson"
        good = '{"author": "a", "link_id": "p", "created_utc": 1}\n'
        corpus.write_text(good + "not json\n" + good, encoding="utf-8")
        out = io.StringIO()
        code = main(
            [
                "serve", "--input", str(corpus), "--cutoff", "1",
                "--horizon", "1000", "--no-filter", "--metrics-every", "0",
            ],
            out=out,
        )
        assert code == 0
        assert "malformed=1" in out.getvalue()

    def test_sigint_clean_shutdown(self, tmp_path):
        """A SIGINT'd serve process must drain, report, and exit 0."""
        if sys.platform.startswith("win"):
            pytest.skip("POSIX signal semantics required")
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--input", "-", "--cutoff", "1", "--horizon", "100000",
                "--no-filter", "--metrics-every", "1", "--batch-size", "2",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        head: list[str] = []
        try:
            for a, p, t in TRIANGLE_STREAM:
                proc.stdin.write(
                    json.dumps(
                        {"author": a, "link_id": p, "created_utc": t}
                    )
                    + "\n"
                )
            proc.stdin.flush()
            # Wait until the service demonstrably entered its event loop
            # (a tick line appeared) before interrupting — a SIGINT during
            # interpreter startup would kill the process, not the loop.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                head.append(line)
                if "[tick" in line:
                    break
            time.sleep(0.2)                  # let it block on stdin again
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        stdout = "".join(head) + stdout
        assert proc.returncode == 0, stderr
        assert "shutdown (interrupt)" in stdout
        assert "a / b / c" in stdout


class TestVerifyOnlineCommand:
    def test_verify_online_exits_zero_on_parity(self):
        out = io.StringIO()
        code = main(
            [
                "verify", "--online", "--seed", "1", "--scale", "0.01",
                "--cutoff", "2", "--steps", "50", "--check-every", "25",
            ],
            out=out,
        )
        assert code == 0
        assert "ONLINE PARITY OK" in out.getvalue()


class TestShardedServeFlags:
    def test_restart_policy_flags_reach_every_shard_supervisor(
        self, tmp_path, monkeypatch
    ):
        # --shards used to read --max-restarts as a lifetime budget and
        # drop --restart-window / --backoff-cap on the floor.
        import repro.serve

        seen = []

        class Recording(repro.serve.ShardedDetectionService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.extend(
                    (
                        s.sup.max_restarts,
                        s.sup.restart_window,
                        s.sup.backoff_base,
                        s.sup.backoff_cap,
                    )
                    for s in self._shards
                )

        monkeypatch.setattr(repro.serve, "ShardedDetectionService", Recording)
        corpus = tmp_path / "stream.ndjson"
        write_corpus(corpus, TRIANGLE_STREAM)
        out = io.StringIO()
        code = main(
            [
                "serve", "--input", str(corpus), "--cutoff", "1",
                "--horizon", "100000", "--no-filter", "--shards", "2",
                "--max-restarts", "3", "--restart-window", "7.5",
                "--backoff-base", "0.02", "--backoff-cap", "0.3",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert seen == [(3, 7.5, 0.02, 0.3)] * 2
        assert "shards: 2/2 up, restarts=0, shed=0" in out.getvalue()
        assert "a / b / c" in out.getvalue()



def final_top_block(text: str) -> list[str]:
    """The ``final top K by R:`` block of a serve run's output."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("final top "))
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        block.append(line)
    return block


class TestSupervisedServe:
    """``serve --supervise`` is the page-hash tier with one shard."""

    ARGS = ["--cutoff", "1", "--horizon", "100000", "--no-filter",
            "--top", "5", "--metrics-every", "0"]

    def serve(self, corpus, *flags):
        out = io.StringIO()
        code = main(["serve", "--input", str(corpus), *self.ARGS, *flags], out=out)
        return code, out.getvalue()

    def test_same_answer_as_in_process_and_resumes_from_shard_00(self, tmp_path):
        corpus = tmp_path / "stream.ndjson"
        write_corpus(
            corpus,
            [("u%d" % (i % 7), "p%d" % (i % 5), 3 * i) for i in range(300)],
        )
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        code, supervised = self.serve(corpus, "--supervise", "--durable", str(d1))
        assert code == 0, supervised
        code, in_process = self.serve(corpus, "--durable", str(d2))
        assert code == 0, in_process
        block = final_top_block(supervised)
        assert block == final_top_block(in_process)
        assert len(block) == 6 and "w_xyz=" in block[1]
        assert "sharded tier: 1 durable shard(s)" in supervised
        assert "shard 0: child pid " in supervised
        assert "shards: 1/1 up, restarts=0, shed=0" in supervised
        assert (d1 / "shard-00" / "wal").is_dir()
        assert not (d1 / "wal").exists()

        empty = tmp_path / "empty.ndjson"
        empty.write_text("", encoding="utf-8")
        code, resumed = self.serve(empty, "--supervise", "--durable", str(d1))
        assert code == 0, resumed
        assert f"store {d1 / 'shard-00'}" in resumed
        assert "  recovery: snapshot " in resumed
        assert final_top_block(resumed) == block

    def test_each_launch_path_refuses_the_others_store(self, tmp_path):
        corpus = tmp_path / "stream.ndjson"
        write_corpus(corpus, TRIANGLE_STREAM)
        tier_root, engine_root = tmp_path / "tier", tmp_path / "engine"
        assert self.serve(corpus, "--supervise", "--durable", str(tier_root))[0] == 0
        assert self.serve(corpus, "--durable", str(engine_root))[0] == 0

        code, text = self.serve(corpus, "--durable", str(tier_root))
        assert code == 2 and "page-hash tier's per-shard stores" in text
        code, text = self.serve(corpus, "--supervise", "--durable", str(engine_root))
        assert code == 2 and "single-engine store" in text
        assert not (engine_root / "shard-00").exists()
