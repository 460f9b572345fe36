"""One command for the whole benchmark (see README.md).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON object as its last line: the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without ``--workload`` it runs every workload (add
``--traced`` for the per-layer runs too) and prints every metric by name
and unit.  ``PYTHONPATH=src python -m benchmarks.e2e.run`` is the same
program.

Each workload is measured in a subprocess of its own so ``peak_rss_mb``
is the workload's and not the corpus generator's; the parent does the
set-up (corpus, ndjson, oracle), enforces a hard timeout and removes the
run directory whatever happens.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from repro.util.io import atomic_write_text  # noqa: E402

from benchmarks.e2e import batch_path, checks, corpus, serve_path  # noqa: E402
from benchmarks.e2e.spec import (  # noqa: E402
    CHILD_TIMEOUT_S,
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    PROFILES,
    RESULTS_DIR,
    RUN_SECONDS,
    SETUP_REPS,
    SMOKE_SECONDS,
    WORKLOADS,
    stream_share,
)
from benchmarks.e2e.tracing import Tracer  # noqa: E402

_RUNNERS = {
    "batch-sparse": batch_path.run,
    "batch-parallel": batch_path.run,
    "batch-dense": batch_path.run,
    "serve-ingest": serve_path.run_ingest,
    "serve-mixed": serve_path.run_mixed,
}


# ---------------------------------------------------------------------------
# Child: the measured subprocess
# ---------------------------------------------------------------------------


def _peak_self_kb() -> int:
    """Peak resident size of this process's own address space, in kB.

    Not ``ru_maxrss``: Linux carries that high-water mark across
    ``vfork`` + ``exec``, so a freshly started subprocess already reads its
    parent's peak (here the corpus generator's, up to 400 MB).  ``VmHWM``
    belongs to the address space and starts over at ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_main(job_path: Path) -> int:
    """Run one workload from its job file; write ``result.json`` beside it."""
    job = json.loads(job_path.read_text(encoding="utf-8"))
    tracer = Tracer(job["workload"]) if job["trace"] else None
    try:
        out = _RUNNERS[job["workload"]](job, tracer)
    except Exception:
        out = {
            "metrics": {},
            "attempted": 1,
            "failed": 1,
            "problems": ["workload raised:\n" + traceback.format_exc()],
        }
    if tracer is not None:
        tracer.dump(RESULTS_DIR / f"trace-{job['workload']}.json")
    # Pool workers and shard processes are reaped by now, so the children
    # figure is the largest of them.
    self_kb = _peak_self_kb()
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (self_kb + child_kb) / 1024.0
    atomic_write_text(job_path.with_name("result.json"), json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Parent: set-up, subprocess, result line
# ---------------------------------------------------------------------------


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, profile: str
) -> dict:
    """Set up, measure in a subprocess, and return the result object."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=RESULTS_DIR))
    try:
        return _run_in(run_dir, workload, seed, seconds, trace, profile)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_in(
    run_dir: Path, workload: str, seed: int, seconds: float, trace: bool, profile: str
) -> dict:
    spec = PROFILES[profile][workload]
    ndjson = run_dir / "corpus.ndjson"
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        n_rows, truth = corpus.write_corpus(ndjson, spec["scale"], seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    job = {
        "workload": workload,
        "spec": spec,
        "seconds": seconds,
        "trace": trace,
        "ndjson": str(ndjson),
        "run_dir": str(run_dir),
        "n_rows": n_rows,
        "truth": truth,
        "bot": corpus.probe_bot(truth),
    }
    t0 = time.perf_counter()
    if workload.startswith("batch"):
        job["expected"] = checks.expected_for(profile, spec)
    elif workload == "serve-ingest":
        job["n_events"] = int(n_rows * stream_share(seconds))
    else:
        events = corpus.load_events(ndjson)
        n_a, n_b = serve_path.mixed_plan(spec, len(events), seconds)
        job.update(
            n_a=n_a, n_b=n_b, oracle=serve_path.mixed_oracle(spec, events, n_a + n_b)
        )
    setup_s += time.perf_counter() - t0

    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    problems: list[str] = []
    out: dict = {"metrics": {}, "attempted": 1, "failed": 1}
    # A session of its own, so a timeout also takes the workload's pool
    # workers and shard processes with it.
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(job_path)],
        start_new_session=True,
    )
    try:
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            problems.append(f"workload subprocess exited {proc.returncode}")
        else:
            out = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        problems.append(f"workload subprocess exceeded {CHILD_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    problems += out.get("problems", [])

    names = PER_LAYER if trace else {n: m["unit"] for n, m in END_TO_END.items()}
    values = dict.fromkeys(PER_LAYER, 0) if trace else {}
    values.update(out["metrics"])
    if not trace:
        values["setup_s"] = setup_s + out.get("prepare_s", 0.0)
        values["peak_rss_mb"] = out.get("peak_rss_mb", 0.0)
    missing = sorted(set(names) - set(values))
    unknown = sorted(set(values) - set(names))
    if missing or unknown:
        problems.append(f"metrics missing {missing}, not in BENCHMARK.json {unknown}")
    return {
        "correct": not problems and out["failed"] == 0,
        "attempted": max(1, out["attempted"]),
        "failed": out["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in names.items()
            if name in values
        },
        "workload": workload,
        "seed": seed,
        "problems": problems,
        "samples": out.get("samples", {}),
        "observed": out.get("observed"),
    }


def result_line(result: dict) -> str:
    """The contract's last line: exactly correct/attempted/failed/metrics."""
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: result[key] for key in keys})


def run_all(seed: int, seconds: float, traced: bool, profile: str) -> int:
    """Every workload (and its traced twin); print every metric by name."""
    results = []
    for workload in WORKLOADS:
        for trace in (False, True) if traced else (False,):
            result = run_workload(workload, seed, seconds, trace, profile)
            results.append({**result, "trace": trace})
            label = f"{workload}{' (traced)' if trace else ''}"
            state = "ok" if result["correct"] else "FAILED"
            print(
                f"\n== {label}: {state}, {result['failed']} of "
                f"{result['attempted']} ops failed, {result['samples']}"
            )
            for problem in result["problems"]:
                print(f"   ! {problem}")
            for name, metric in result["metrics"].items():
                if metric["value"] or not trace:
                    print(f"   {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    path = RESULTS_DIR / f"e2e-{profile}-seed{seed}.json"
    atomic_write_text(
        path, json.dumps({"seed": seed, "profile": profile, "runs": results}, indent=1)
    )
    print(f"\nwrote {path}")
    return 0 if all(r["correct"] for r in results) else 1


def record_expected() -> int:
    """Re-measure the committed batch observations (after an intended change)."""
    table: dict = {}
    checks.EXPECTED_PATH.unlink(missing_ok=True)  # no expectation: observe only
    for profile in PROFILES:
        for workload in ("batch-sparse", "batch-dense"):
            spec = PROFILES[profile][workload]
            # The observation does not depend on how long the run measures.
            result = run_workload(workload, DEFAULT_SEED, SMOKE_SECONDS, False, profile)
            if result["observed"] is None:
                print(f"{profile}/{workload} failed: {result['problems']}")
                return 1
            key = f"{spec['scale']}:{spec['cutoff']}"
            table.setdefault(profile, {})[key] = result["observed"]
    # One observation per line keeps the committed file reviewable.
    profiles = [
        f' "{profile}": {{\n'
        + ",\n".join(
            f'  "{key}": {json.dumps(entry, sort_keys=True)}'
            for key, entry in sorted(entries.items())
        )
        + "\n }"
        for profile, entries in sorted(table.items())
    ]
    atomic_write_text(checks.EXPECTED_PATH, "{\n" + ",\n".join(profiles) + "\n}\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: also run every per-layer run")
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, ~1 s runs")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json from this checkout")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        return child_main(args.child)
    if args.record_expected:
        return record_expected()
    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    if args.workload is None:
        return run_all(args.seed, seconds, args.traced, profile)
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), profile)
    for problem in result["problems"]:
        print(f"! {problem}", file=sys.stderr)
    print(result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
