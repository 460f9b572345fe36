"""Run the benchmark in two sets on the same commit and compare them.

This is the driver's acceptance rule, runnable by hand, and how the
bounds in ``BENCHMARK.json`` were justified: each set runs every workload
``--runs`` times, each time with another seed.  Per workload and
end-to-end metric it prints both medians, each set's quartile spread
(Q3 - Q1 as a share of the median), how much worse the second median is,
and the bound.  It exits non-zero if a spread (``setup_s`` excepted) or a
worsening exceeds its bound, or if any run was incorrect.
"""

from __future__ import annotations

import sys
from pathlib import Path

# run.py, imported below, puts src/ on the path the same way.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402

from benchmarks.e2e.run import run_workload  # noqa: E402
from repro.util.io import atomic_write_text  # noqa: E402
from benchmarks.e2e.spec import (  # noqa: E402
    END_TO_END,
    RESULTS_DIR,
    RUN_SECONDS,
    SMOKE_SECONDS,
    WORKLOADS,
)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    profile = "smoke" if args.smoke else "full"
    seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS

    sets: list[dict[str, dict[str, list[float]]]] = []
    incorrect = 0
    for set_index in range(2):
        table: dict[str, dict[str, list[float]]] = {}
        for workload in args.workload or WORKLOADS:
            rows = table[workload] = {name: [] for name in END_TO_END}
            for run in range(args.runs):
                seed = 1 + set_index * args.runs + run
                result = run_workload(workload, seed, seconds, False, profile)
                incorrect += not result["correct"]
                for name in END_TO_END:
                    rows[name].append(result["metrics"][name]["value"])
                print(
                    f"set {set_index + 1} {workload} seed {seed}: "
                    f"{'ok' if result['correct'] else 'FAILED ' + str(result['problems'])}",
                    flush=True,
                )
        sets.append(table)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    atomic_write_text(RESULTS_DIR / f"repeat-{profile}.json", json.dumps(sets, indent=1))

    print(
        f"\n{'workload':<15}{'metric':<21}{'median 1':>12}{'median 2':>12}"
        f"{'spread 1':>10}{'spread 2':>10}{'worse by':>10}{'bound':>7}"
    )
    over = 0
    for workload in sets[0]:
        for name, meta in END_TO_END.items():
            first, second = (s[workload][name] for s in sets)
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in (first, second)]
            worse = worsening(
                statistics.median(first), statistics.median(second), meta["better"]
            )
            bad = worse > meta["bound"] or (
                name != "setup_s" and max(spreads) > meta["bound"]
            )
            over += bad
            print(
                f"{workload:<15}{name:<21}{statistics.median(first):>12.5g}"
                f"{statistics.median(second):>12.5g}{spreads[0]:>10.3f}"
                f"{spreads[1]:>10.3f}{worse:>+10.3f}{meta['bound']:>7.2f}"
                f"{'  OVER' if bad else ''}"
            )
    print(f"\n{over} metric(s) over their bound, {incorrect} incorrect run(s)")
    return 1 if over or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
