"""Benchmark-regression gate: fresh bench results vs committed baselines.

Speed is measured end to end by ``benchmarks/e2e`` (see
``docs/benchmarking.md``); this gate guards the two things that harness
does not: the kernel-vs-reference-twin speedups of
``benchmarks/test_bench_kernels.py`` and the per-layer cost and
planted-net recovery floor of ``benchmarks/test_bench_layers.py``.  Both
emit machine-readable ``BENCH_*.json`` files (``benchmarks/results/``);
the gate compares a fresh run against the committed baselines
(``benchmarks/baselines/``) and fails on slowdown.

What is gated is one table, :data:`RULES`: per result file, whether a
fresh run is *required*, and a row per metric — a dotted path into the
JSON (one ``*`` matches every key at that level) and a kind.  One loop
interprets it (slowdown-only — a faster fresh run always passes):

- ``seconds`` are compared with a relative tolerance *and* an absolute
  noise floor: a fresh timing fails only when it exceeds
  ``baseline * (1 + tolerance) + noise_floor``.  The floor keeps
  millisecond-scale tiny-run jitter from flaking the gate while a real
  regression (a de-vectorized kernel) still trips it.
- ``speedup`` ratios are dimensionless and transfer across machines
  better than seconds; a fresh ratio fails below
  ``baseline * (1 - tolerance)``, and is compared only when the
  baseline's slow side (the row's ``ref`` path) is above the noise floor
  — otherwise the ratio itself is noise.
- ``floor`` is absolute, not baseline-relative: the fresh value must
  reach the floor the fresh file itself commits to (the row's ``ref``
  path), for every key the baseline has — so a stale result file cannot
  hide a detection regression.

A required file whose fresh counterpart is missing fails the gate (the
bench did not run); an optional one — the full-scale
``BENCH_layers.json`` is not part of the CI smoke — is skipped when no
fresh run exists and compared when one does.  Baseline and fresh must be
captured at the same ``scale``.  A fresh file that does not parse fails
with a pointer at the atomic-write contract (``benchmarks/_figures.py``),
since a truncated ``BENCH_*.json`` means a writer bypassed it.

Run as ``python -m repro.verify.bench_gate``; ``--update`` refreshes the
baselines from the fresh results instead of comparing (the documented
way to accept an intentional perf change — see ``docs/benchmarking.md``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "GateCheck",
    "GateReport",
    "RULES",
    "Rule",
    "TruncatedResultError",
    "run_gate",
    "main",
]

DEFAULT_TOLERANCE = 0.30
DEFAULT_NOISE_FLOOR = 0.01  # seconds


class TruncatedResultError(RuntimeError):
    """A ``BENCH_*.json`` failed to parse (e.g. truncated by a kill)."""

    def __init__(self, path: Path, cause: Exception) -> None:
        super().__init__(
            f"{path} is not valid JSON ({cause}). Bench result files are "
            "written atomically (tmp + rename, see "
            "benchmarks/_figures.py:atomic_write_text); a truncated file "
            "means a writer bypassed that helper or the file was edited. "
            "Re-run the bench to regenerate it."
        )
        self.path = path


@dataclass
class GateCheck:
    """One baseline-vs-fresh comparison."""

    name: str
    kind: str  # "seconds" | "speedup"
    baseline: float
    fresh: float
    ok: bool
    note: str = ""

    def describe(self) -> str:
        """One aligned report line: verdict, name, baseline vs fresh."""
        mark = "ok  " if self.ok else "FAIL"
        unit = "s" if self.kind == "seconds" else "x"
        line = (
            f"{mark} {self.name:42s} baseline {self.baseline:10.4f}{unit}  "
            f"fresh {self.fresh:10.4f}{unit}"
        )
        return line + (f"  ({self.note})" if self.note else "")


@dataclass
class GateReport:
    """Outcome of one gate run."""

    tolerance: float
    noise_floor: float
    checks: list[GateCheck] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[GateCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors

    def describe(self) -> str:
        """Human-readable gate report: checks, skips, errors, verdict."""
        lines = [
            f"bench gate: tolerance ±{self.tolerance:.0%}, noise floor "
            f"{self.noise_floor}s — "
            f"{len(self.checks)} check(s), {len(self.skipped)} skipped"
        ]
        lines += [f"  {c.describe()}" for c in self.checks]
        lines += [f"  skip {s}" for s in self.skipped]
        lines += [f"  ERROR {e}" for e in self.errors]
        lines.append(
            "  GATE OK — no benchmark regressions"
            if self.ok
            else f"  GATE FAILED — {len(self.failures)} regression(s), "
            f"{len(self.errors)} error(s)"
        )
        return "\n".join(lines)


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TruncatedResultError(path, exc) from exc


@dataclass(frozen=True)
class Rule:
    """One gated metric of a result file."""

    #: Check name as reported; ``*`` stands for the wildcard's key.
    name: str
    #: Dotted path into the JSON; one ``*`` matches every key there.
    path: str
    kind: str  # "seconds" | "speedup" | "floor"
    #: ``speedup``: path of the baseline's slow-side seconds;
    #: ``floor``: path of the floor inside the fresh file.
    ref: str = ""


_KERNELS = (
    Rule("kernels[*].kernel_seconds", "kernels.*.kernel_seconds", "seconds"),
    Rule(
        "kernels[*].speedup",
        "kernels.*.speedup",
        "speedup",
        ref="kernels.*.reference_seconds",
    ),
)
_LAYERS = (
    Rule("layers.extract.seconds", "extract.seconds", "seconds"),
    Rule("layers[*].seconds", "layers.*.seconds", "seconds"),
    Rule("layers.fuse.seconds", "fuse.seconds", "seconds"),
    # Every planted net must stay recovered by the fused score.
    Rule(
        "layers.recovery[*].precision",
        "recovery.*.precision",
        "floor",
        ref="recovery_floor",
    ),
    Rule(
        "layers.recovery[*].recall",
        "recovery.*.recall",
        "floor",
        ref="recovery_floor",
    ),
)

#: result file -> (required, rules).  CI runs the required benches every
#: time; an optional file is compared only when a fresh run exists.
RULES: dict[str, tuple[bool, tuple[Rule, ...]]] = {
    "BENCH_kernels.json": (True, _KERNELS),
    "BENCH_layers_smoke.json": (True, _LAYERS),
    "BENCH_layers.json": (False, _LAYERS),
}


def _select(doc: Any, path: str) -> dict[str, Any]:
    """Values of *doc* at dotted *path*, keyed by the ``*`` match (``""``
    for a path without one); absent entries are left out."""
    nodes = {"": doc}
    for part in path.split("."):
        if part == "*":
            nodes = nodes[""] if isinstance(nodes.get(""), dict) else {}
        else:
            nodes = {
                key: node[part]
                for key, node in nodes.items()
                if isinstance(node, dict) and part in node
            }
    return nodes


def _apply(rule: Rule, base: dict, fresh: dict, rep: GateReport) -> None:
    """Interpret one table row against one baseline/fresh pair."""
    fresh_values = _select(fresh, rule.path)
    for key, value in _select(base, rule.path).items():
        name = rule.name.replace("*", key)
        if key not in fresh_values:
            rep.errors.append(f"{name}: missing from fresh results")
            continue
        b, f = float(value), float(fresh_values[key])
        if rule.kind == "seconds":
            limit = b * (1.0 + rep.tolerance) + rep.noise_floor
            rep.checks.append(GateCheck(name, "seconds", b, f, f <= limit))
        elif rule.kind == "speedup":
            if float(_select(base, rule.ref)[key]) < rep.noise_floor:
                rep.skipped.append(
                    f"{name}: baseline timing below noise floor"
                )
                continue
            floor = b * (1.0 - rep.tolerance)
            rep.checks.append(GateCheck(name, "speedup", b, f, f >= floor))
        else:
            floor = float(_select(fresh, rule.ref).get("", 0.0))
            if f < floor:
                rep.errors.append(
                    f"{name}: {f:.2f} below the committed {floor:g} floor"
                )


def run_gate(
    baseline_dir: str | Path,
    results_dir: str | Path,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> GateReport:
    """Compare every committed baseline against its fresh counterpart.

    Examples
    --------
    >>> import tempfile, json, pathlib
    >>> d = pathlib.Path(tempfile.mkdtemp())
    >>> (d / "base").mkdir(); (d / "res").mkdir()
    >>> payload = {"scale": "tiny", "kernels": {"k": {
    ...     "kernel_seconds": 1.0, "reference_seconds": 5.0, "speedup": 5.0}}}
    >>> _ = (d / "base" / "BENCH_kernels.json").write_text(json.dumps(payload))
    >>> _ = (d / "res" / "BENCH_kernels.json").write_text(json.dumps(payload))
    >>> run_gate(d / "base", d / "res").ok
    True
    """
    baseline_dir = Path(baseline_dir)
    results_dir = Path(results_dir)
    rep = GateReport(tolerance=tolerance, noise_floor=noise_floor)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        rep.errors.append(f"no BENCH_*.json baselines under {baseline_dir}")
        return rep
    for base_path in baselines:
        entry = RULES.get(base_path.name)
        if entry is None:
            rep.skipped.append(f"{base_path.name}: no rules registered")
            continue
        required, rules = entry
        fresh_path = results_dir / base_path.name
        if not fresh_path.exists():
            if required:
                rep.errors.append(
                    f"{base_path.name}: fresh result missing under "
                    f"{results_dir} (bench did not run?)"
                )
            else:
                rep.skipped.append(
                    f"{base_path.name}: optional baseline, no fresh run"
                )
            continue
        try:
            base, fresh = _load(base_path), _load(fresh_path)
        except TruncatedResultError as exc:
            rep.errors.append(str(exc))
            continue
        if base.get("scale") != fresh.get("scale"):
            rep.errors.append(
                f"{base_path.stem}: scale mismatch (baseline "
                f"{base.get('scale')!r} vs fresh {fresh.get('scale')!r}) — "
                "rerun at baseline scale"
            )
            continue
        for rule in rules:
            _apply(rule, base, fresh, rep)
    return rep


def update_baselines(
    baseline_dir: str | Path, results_dir: str | Path
) -> list[str]:
    """Copy fresh results over the committed baselines; returns the names."""
    baseline_dir = Path(baseline_dir)
    results_dir = Path(results_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    updated = []
    for name in sorted(RULES):
        fresh_path = results_dir / name
        if not fresh_path.exists():
            continue
        _load(fresh_path)  # refuse to bless a truncated file
        shutil.copyfile(fresh_path, baseline_dir / name)
        updated.append(name)
    return updated


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; exit 0 iff the gate passes."""
    repo_root = Path(__file__).resolve().parents[3]
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.bench_gate",
        description="Compare fresh BENCH_*.json results against committed "
        "baselines; fail on slowdown.",
    )
    parser.add_argument(
        "--baseline-dir", default=str(repo_root / "benchmarks" / "baselines")
    )
    parser.add_argument(
        "--results-dir", default=str(repo_root / "benchmarks" / "results")
    )
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument(
        "--noise-floor", type=float, default=DEFAULT_NOISE_FLOOR
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="refresh the baselines from the fresh results instead of "
        "comparing",
    )
    args = parser.parse_args(argv)
    if args.update:
        updated = update_baselines(args.baseline_dir, args.results_dir)
        print(f"updated {len(updated)} baseline(s): {', '.join(updated)}")
        return 0
    report = run_gate(
        args.baseline_dir,
        args.results_dir,
        tolerance=args.tolerance,
        noise_floor=args.noise_floor,
    )
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
