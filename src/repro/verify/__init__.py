"""Correctness subsystem: differential parity + runtime invariants.

The repo's correctness story rests on every execution mode agreeing
*exactly*: three plans, each on the serial, parallel and YGM executors,
against three reference oracles.  This package makes that guarantee
executable.  Every harness returns the one
:class:`~repro.verify.report.Report` (header lines, ``facts``, named
sections of divergence lines; ok iff no section holds a line) and diffs
with the one core beside it (:mod:`repro.verify.report`):

- :mod:`repro.verify.parity` — run one corpus through every plan on
  every executor, structurally diff the outputs against the reference
  oracle, and shrink any divergence to a minimal counterexample;
- :mod:`repro.verify.invariants` — the paper's checkable properties
  (score bounds, ``min(w') <= min(P')``, symmetric dedup, window
  monotonicity) as reusable assertions;
- :mod:`repro.verify.chaos` — fault-injected parity: a seeded
  :class:`~repro.ygm.faults.FaultPlan` is unleashed on a run over the
  YGM executor, which must fail typed (or complete), then resume from its checkpoint to
  results identical to the serial oracle;
- :mod:`repro.verify.bench_gate` — the CI benchmark-regression gate:
  one rule table over the kernel and multi-layer ``BENCH_*.json``
  results, compared against committed baselines with a
  tolerance-plus-noise-floor policy (``python -m
  repro.verify.bench_gate``); speed itself is ``benchmarks/e2e``'s;
- :mod:`repro.verify.online` — streaming parity: a seeded interleaving
  of appends, out-of-order arrivals, and window advances is driven
  through the :class:`~repro.serve.engine.DetectionEngine`, whose every
  queryable surface must exactly match a from-scratch batch run over the
  live window at each checkpoint;
- :mod:`repro.verify.sharded` — sharded parity: one corpus is streamed
  through the single-engine oracle and through
  :class:`~repro.serve.shard.ShardedDetectionService` tiers at several
  shard counts, and every merged answer (top-k, user scores,
  components, raw-state probe) must match the oracle bit-for-bit;
- :mod:`repro.verify.layers` — multi-layer parity: every action layer's
  event stream through the full engine sweep, the page layer against
  the pre-refactor code path byte-for-byte, and the fused score under
  layer/weight permutations (must be ``==``-identical).

All are callable from tests and from the ``repro-botnets verify`` CLI
subcommand (``--chaos`` for the fault-injected mode, ``--online`` for
the streaming mode, ``--sharded`` for the shard-topology mode,
``--layers`` for the multi-layer mode).
"""

from repro.verify.chaos import diff_results, run_chaos, run_recovery_chaos
from repro.verify.layers import run_layer_parity
from repro.verify.online import run_online_parity
from repro.verify.report import Report
from repro.verify.sharded import run_sharded_parity

from repro.verify.invariants import (
    InvariantViolation,
    check_edge_canonical_form,
    check_edge_weight_bounds,
    check_projection_invariants,
    check_triangle_weight_bound,
    check_unit_interval,
    check_window_monotonicity,
)
from repro.verify.parity import (
    default_projection_engines,
    default_triangle_engines,
    default_validation_engines,
    run_parity,
    shrink_comments,
)

_BENCH_GATE_EXPORTS = ("GateCheck", "GateReport", "run_gate")


def __getattr__(name: str):
    # Lazy so `python -m repro.verify.bench_gate` does not trigger the
    # runpy found-in-sys.modules double-import warning.
    if name in _BENCH_GATE_EXPORTS:
        from repro.verify import bench_gate

        return getattr(bench_gate, name)
    raise AttributeError(name)


__all__ = [
    "GateCheck",
    "GateReport",
    "run_gate",
    "Report",
    "diff_results",
    "run_chaos",
    "run_recovery_chaos",
    "InvariantViolation",
    "check_edge_canonical_form",
    "check_edge_weight_bounds",
    "check_projection_invariants",
    "check_triangle_weight_bound",
    "check_unit_interval",
    "check_window_monotonicity",
    "run_layer_parity",
    "run_online_parity",
    "run_sharded_parity",
    "default_projection_engines",
    "default_triangle_engines",
    "default_validation_engines",
    "run_parity",
    "shrink_comments",
]
