"""Command-line interface — the analyst front door.

Six subcommands cover the workflow the paper describes:

- ``generate`` — synthesize a ground-truth corpus to Pushshift-format
  ndjson (plus a truth JSON for scoring);
- ``recommend`` — profile a corpus's same-page delays and cost candidate
  windows *before* projecting (the §3.2.3 parameter question);
- ``detect`` — run the three-step framework over an ndjson corpus and
  report components, optionally exporting DOT renders; ``--layers``
  runs one pass per action layer (page, link, reply, hashtag, text) and
  fuses the per-layer CI graphs into one multi-layer score;
- ``figures`` — regenerate the paper's metric-relationship figures
  (C vs T, w_xyz vs min w') for a corpus and window;
- ``verify`` — run a seeded corpus through the three step plans on
  every executor (serial, parallel, YGM) — all thin orchestration over
  the shared :mod:`repro.kernels` layer (see ``docs/architecture.md``)
  — diff the outputs against the reference oracles, and check the
  paper's invariants (the engine-parity guarantee, made executable);
  ``verify --chaos`` instead injects a seeded fault into a run on the
  YGM executor and checks the fail-typed → checkpoint-resume → exact-parity
  contract; ``verify --online`` drives a seeded append/advance
  interleaving through the online engine and diffs every query surface
  against from-scratch batch runs; ``verify --sharded`` streams the
  corpus through sharded query tiers at several shard counts and
  requires every merged answer to match the single-engine oracle;
  ``verify --layers`` sweeps every action layer of a seeded multilayer
  corpus through the engine-parity harness, diffs the page layer
  against the pre-refactor path, and checks fusion determinism;
- ``serve`` — tail an ndjson stream (file or ``-`` for stdin) through
  the online detection service: sliding-window eviction at the
  watermark, incremental re-scoring, periodic top-k and metrics output,
  clean shutdown on EOF or SIGINT.  ``--shards N`` routes each event to
  one of N supervised engine shards by page hash and answers queries
  from the cross-shard ledger exchange; ``--supervise`` runs that tier
  with one shard (an engine in a watchdog child, restarted with
  recovery); ``--http PORT`` fronts the tier with the stdlib HTTP gateway
  (``/topk``, ``/user/<id>/score``, ``/component/<id>``, ``/status``,
  ``/metrics``); ``--linger`` keeps answering queries after stream end.

``detect`` and ``figures`` accept ``--skip-malformed`` (plus
``--quarantine``) to survive corrupt lines in real-world dumps.

Installed as ``repro-botnets`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.analysis import (
    census_components,
    format_table,
    recommend_windows,
    score_figure,
    weight_figure,
)
from repro.analysis.export import result_to_dot
from repro.util.io import atomic_write_text
from repro.datagen import GroundTruth, RedditDatasetBuilder, score_detection
from repro.graph import AuthorFilter
from repro.graph.io import IngestStats, btm_from_ndjson, write_comments_ndjson
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow
from repro.store import StoreLayoutError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-botnets",
        description="Coordinated botnet detection via temporal clustering "
        "analysis (Piercey 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="synthesize a ground-truth corpus to ndjson"
    )
    gen.add_argument(
        "--preset",
        choices=["jan2020", "oct2016", "multilayer"],
        default="jan2020",
        help="corpus preset (botnet mix mirrors the paper's months; "
        "multilayer adds link-spam, hashtag-brigade, and copypasta nets "
        "that coordinate on non-page action layers)",
    )
    gen.add_argument("--seed", type=int, default=2020)
    gen.add_argument("--scale", type=float, default=1.0,
                     help="background size multiplier")
    gen.add_argument("--out", required=True, help="output ndjson path")
    gen.add_argument("--truth", help="optional ground-truth JSON path")

    rec = sub.add_parser(
        "recommend", help="profile delays and cost candidate windows"
    )
    rec.add_argument("--input", required=True, help="ndjson corpus")

    det = sub.add_parser("detect", help="run the three-step framework")
    det.add_argument("--input", required=True, help="ndjson corpus")
    det.add_argument("--delta1", type=int, default=0)
    det.add_argument("--delta2", type=int, default=60)
    det.add_argument("--cutoff", type=int, default=25,
                     help="minimum triangle edge weight")
    det.add_argument("--buckets", type=int, default=None,
                     help="time-bucket width for the low-memory projection")
    det.add_argument("--executor", choices=["serial", "parallel"],
                     default="serial",
                     help="plan executor: serial (in-process) or parallel "
                     "(forked worker pool; bit-identical results)")
    det.add_argument("--workers", type=int, default=0,
                     help="worker-pool size for --executor parallel "
                     "(0 = cpu count)")
    det.add_argument("--no-filter", action="store_true",
                     help="keep AutoModerator/[deleted] (ablation)")
    det.add_argument("--no-hypergraph", action="store_true",
                     help="skip Step 3 validation")
    det.add_argument("--truth", help="ground-truth JSON for scoring")
    det.add_argument("--export-dot", metavar="DIR",
                     help="write component DOT files to DIR")
    det.add_argument("--report", metavar="PATH",
                     help="write a full markdown analysis report to PATH")
    det.add_argument("--top", type=int, default=15,
                     help="components to list")
    det.add_argument("--skip-malformed", action="store_true",
                     help="skip (and count) malformed ndjson lines instead "
                     "of aborting")
    det.add_argument("--quarantine", metavar="PATH",
                     help="with --skip-malformed, copy rejected lines to "
                     "this sidecar file")
    det.add_argument("--layers", metavar="LIST", default=None,
                     help="comma-separated action layers (or 'all'): run "
                     "one framework pass per layer and fuse the CI graphs "
                     "into a multi-layer score (e.g. page,link,hashtag)")
    det.add_argument("--layer-weights", metavar="LIST", default=None,
                     help="with --layers, per-layer fusion multipliers as "
                     "name=weight pairs (e.g. page=1,text=0.5)")

    fig = sub.add_parser(
        "figures", help="regenerate the metric-relationship figures"
    )
    fig.add_argument("--input", required=True, help="ndjson corpus")
    fig.add_argument("--delta1", type=int, default=0)
    fig.add_argument("--delta2", type=int, default=60)
    fig.add_argument("--cutoff", type=int, default=10)
    fig.add_argument("--skip-malformed", action="store_true",
                     help="skip (and count) malformed ndjson lines instead "
                     "of aborting")
    fig.add_argument("--quarantine", metavar="PATH",
                     help="with --skip-malformed, copy rejected lines to "
                     "this sidecar file")

    ver = sub.add_parser(
        "verify",
        help="differential engine-parity run + invariant checks "
        "on a seeded corpus",
    )
    ver.add_argument("--seed", type=int, default=0,
                     help="seed for the generated corpus")
    ver.add_argument("--preset", choices=["jan2020", "oct2016"],
                     default="oct2016")
    ver.add_argument("--scale", type=float, default=0.05,
                     help="background size multiplier (keep small: the "
                     "reference oracle is quadratic per page)")
    ver.add_argument("--delta1", type=int, default=0)
    ver.add_argument("--delta2", type=int, default=60)
    ver.add_argument("--cutoff", type=int, default=5,
                     help="minimum triangle edge weight")
    ver.add_argument("--bucket-width", type=int, default=None,
                     help="bucket width for the bucketed engine "
                     "(default: window/3)")
    ver.add_argument("--executor", choices=["serial", "parallel"],
                     default="serial",
                     help="plan executor for the invariant-check "
                     "projection (the parity sweep always includes the "
                     "parallel backend)")
    ver.add_argument("--workers", type=int, default=2,
                     help="worker-pool size for the parallel engines in "
                     "the sweep (and --executor parallel)")
    ver.add_argument("--no-shrink", action="store_true",
                     help="skip counterexample shrinking on divergence")
    ver.add_argument("--chaos", action="store_true",
                     help="fault-injected parity instead: draw a seeded "
                     "fault plan, run the pipeline on a YGM world under it, "
                     "require a typed failure, resume from the checkpoint, "
                     "and diff against the serial oracle")
    ver.add_argument("--chaos-backend", choices=["mp", "serial"],
                     default="mp",
                     help="world backend for --chaos (mp = real worker "
                     "processes)")
    ver.add_argument("--chaos-ranks", type=int, default=2,
                     help="world size for --chaos")
    ver.add_argument("--chaos-deadline", type=float, default=30.0,
                     help="barrier/exec liveness deadline (s) for --chaos")
    ver.add_argument("--online", action="store_true",
                     help="online parity instead: stream the corpus "
                     "through the serve engine under a seeded "
                     "append/advance interleaving and diff every query "
                     "surface against from-scratch batch runs")
    ver.add_argument("--steps", type=int, default=60,
                     help="interleaved steps for --online")
    ver.add_argument("--check-every", type=int, default=10,
                     help="oracle-diff frequency (steps) for --online")
    ver.add_argument("--sharded", action="store_true",
                     help="sharded parity instead: stream the corpus "
                     "through sharded query tiers at several shard "
                     "counts and diff every merged answer (top-k, user "
                     "scores, components) against the single-engine "
                     "oracle")
    ver.add_argument("--shard-counts", default="1,2,4",
                     help="comma-separated shard counts for --sharded")
    ver.add_argument("--layers", action="store_true",
                     help="multi-layer parity instead: sweep every action "
                     "layer of a seeded multilayer corpus through the full "
                     "engine-parity harness, check the page layer against "
                     "the pre-refactor path byte-for-byte, and require the "
                     "fused score to be identical under layer/weight "
                     "permutations")

    srv = sub.add_parser(
        "serve",
        help="online detection service over an ndjson stream",
    )
    srv.add_argument("--input", required=True,
                     help="ndjson stream (path, or - for stdin)")
    srv.add_argument("--delta1", type=int, default=0)
    srv.add_argument("--delta2", type=int, default=60)
    srv.add_argument("--cutoff", type=int, default=25,
                     help="minimum triangle edge weight")
    srv.add_argument("--horizon", type=int, default=86_400,
                     help="sliding-window width in seconds")
    srv.add_argument("--lateness", type=int, default=0,
                     help="allowed out-of-order lateness in seconds")
    srv.add_argument("--batch-size", type=int, default=512,
                     help="events per engine micro-batch")
    srv.add_argument("--queue-capacity", type=int, default=65_536)
    srv.add_argument("--queue-policy",
                     choices=["reject", "drop-oldest", "drop-newest"],
                     default="reject")
    srv.add_argument("--top", type=int, default=10,
                     help="triplets per periodic report")
    srv.add_argument("--rank-by", choices=["t", "c", "min_weight"],
                     default="t",
                     help="triplet ranking for the periodic report")
    srv.add_argument("--metrics-every", type=int, default=50,
                     help="ticks between periodic reports (0 = final only)")
    srv.add_argument("--max-events", type=int, default=None,
                     help="stop after this many events (default: stream end)")
    srv.add_argument("--no-filter", action="store_true",
                     help="keep AutoModerator/[deleted]")
    srv.add_argument("--no-hypergraph", action="store_true",
                     help="skip Step 3 validation scores")
    srv.add_argument("--status-json", metavar="PATH",
                     help="write the final status() snapshot as JSON")

    dur = srv.add_argument_group(
        "durability", "crash-safe serving (WAL + snapshots, --durable DIR)"
    )
    dur.add_argument("--durable", metavar="DIR", default=None,
                     help="durable store directory; existing state is "
                          "recovered on start (exact replay)")
    dur.add_argument("--fsync", choices=["always", "interval", "off"],
                     default="interval",
                     help="journal fsync policy (power-loss window)")
    dur.add_argument("--fsync-interval", type=int, default=32,
                     help="records between fsyncs under --fsync interval")
    dur.add_argument("--snapshot-every", type=int, default=256,
                     help="journal records between snapshot generations")
    dur.add_argument("--keep-snapshots", type=int, default=3,
                     help="snapshot generations retained for fallback")
    dur.add_argument("--wal-segment-bytes", type=int, default=4 * 1024 * 1024,
                     help="journal segment rotation threshold")

    sup = srv.add_argument_group(
        "supervision", "watchdog child process (--supervise, needs --durable)"
    )
    sup.add_argument("--supervise", action="store_true",
                     help="run the engine in a supervised child that is "
                          "restarted (with recovery) if it dies or hangs")
    sup.add_argument("--heartbeat-timeout", type=float, default=30.0,
                     help="seconds before an unresponsive child is replaced")
    sup.add_argument("--max-restarts", type=int, default=5,
                     help="restarts allowed inside --restart-window before "
                          "degrading to load shedding")
    sup.add_argument("--restart-window", type=float, default=60.0,
                     help="sliding window (seconds) for the restart budget")
    sup.add_argument("--backoff-base", type=float, default=0.1,
                     help="first restart backoff (seconds, doubles each "
                          "consecutive failure)")
    sup.add_argument("--backoff-cap", type=float, default=5.0,
                     help="maximum restart backoff (seconds)")

    net = srv.add_argument_group(
        "sharding / http",
        "horizontally sharded query tier (--shards N) behind a stdlib "
        "HTTP gateway (--http PORT)",
    )
    net.add_argument("--shards", type=int, default=1,
                     help="supervised engine shards partitioning ingest "
                          "by page hash; queries are answered from the "
                          "cross-shard ledger exchange (>1 runs worker "
                          "processes; composes with --durable)")
    net.add_argument("--http", type=int, default=None, metavar="PORT",
                     help="serve /topk /user/<id>/score /component/<id> "
                          "/status /metrics over HTTP on this port "
                          "(0 = pick a free port)")
    net.add_argument("--http-host", default="127.0.0.1",
                     help="bind address for --http")
    net.add_argument("--linger", action="store_true",
                     help="after the input stream ends, keep answering "
                          "HTTP queries until SIGINT (needs --http)")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


_PRESETS = {
    "jan2020": RedditDatasetBuilder.jan2020_like,
    "oct2016": RedditDatasetBuilder.oct2016_like,
    "multilayer": RedditDatasetBuilder.multilayer,
}


def _cmd_generate(args: argparse.Namespace, out) -> int:
    builder = _PRESETS[args.preset](seed=args.seed, scale=args.scale)
    dataset = builder.build()
    count = write_comments_ndjson(
        args.out, (rec.to_pushshift_dict() for rec in dataset.records)
    )
    print(f"wrote {count:,} comments to {args.out}", file=out)
    if args.truth:
        Path(args.truth).write_text(
            json.dumps(
                {
                    "botnets": {
                        k: sorted(v) for k, v in dataset.truth.botnets.items()
                    },
                    "helpful": sorted(dataset.truth.helpful),
                },
                indent=2,
            ),
            encoding="utf-8",
        )
        print(f"wrote ground truth to {args.truth}", file=out)
    return 0


def _cmd_recommend(args: argparse.Namespace, out) -> int:
    btm = btm_from_ndjson(args.input)
    from repro.analysis import delay_profile

    profile = delay_profile(btm)
    print(f"delay profile: {profile.describe()}", file=out)
    rows = [
        {
            "window": str(r.window),
            "basis": r.rationale,
            "predicted pairs": r.predicted_pairs,
            "relative cost": round(r.relative_cost, 1),
        }
        for r in recommend_windows(btm)
    ]
    print(format_table(rows, title="candidate windows:"), file=out)
    return 0


def _load_truth(path: str) -> GroundTruth:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    truth = GroundTruth()
    for name, members in data.get("botnets", {}).items():
        truth.add(name, members)
    truth.helpful = frozenset(data.get("helpful", []))
    return truth


class _UsageError(Exception):
    """A bad flag combination or value: ``main`` prints it and exits 2."""


def _ingest_mode(args: argparse.Namespace) -> dict:
    """``errors=`` / ``quarantine=`` for the loaders, from the ingest flags."""
    if args.quarantine and not args.skip_malformed:
        raise _UsageError("--quarantine requires --skip-malformed")
    return {"errors": "skip" if args.skip_malformed else "raise", "quarantine": args.quarantine}


def _print_skips(out, stats: IngestStats) -> None:
    """The one lenient-ingestion report line (silent on a clean read)."""
    if stats.malformed:
        where = f" (quarantined to {stats.quarantined_to})" if stats.quarantined_to else ""
        print(
            f"skipped {stats.malformed:,} malformed record(s) of {stats.total_lines:,}{where}",
            file=out,
        )


def _load_btm(args: argparse.Namespace, out):
    """Load the input corpus, honoring the lenient-ingestion flags."""
    stats = IngestStats()
    btm = btm_from_ndjson(args.input, stats=stats, **_ingest_mode(args))
    _print_skips(out, stats)
    return btm


def _parse_layer_weights(
    spec: str | None, layers: str | None
) -> tuple[tuple[str, float], ...]:
    if not spec:
        return ()
    if not layers:
        raise _UsageError("--layer-weights requires --layers LIST")
    pairs = []
    for item in spec.split(","):
        name, _, value = item.partition("=")
        try:
            if not name.strip():
                raise ValueError(item)
            pairs.append((name.strip(), float(value)))
        except ValueError:
            raise _UsageError(
                f"bad --layer-weights entry {item!r} (want name=weight)"
            ) from None
    return tuple(pairs)


def _pipeline_config(args: argparse.Namespace, **fixed) -> PipelineConfig:
    """The one place a subcommand's flags become a :class:`PipelineConfig`.

    A field whose flag the subcommand lacks keeps its default; *fixed*
    pins fields whatever the flags say.
    """
    flag = vars(args).get
    fields = dict(
        window=TimeWindow(args.delta1, args.delta2),
        min_triangle_weight=args.cutoff,
        author_filter=AuthorFilter.none() if flag("no_filter") else AuthorFilter(),
        compute_hypergraph=not flag("no_hypergraph"),
        time_bucket_width=flag("buckets"),
        executor=flag("executor", "serial"),
        n_workers=flag("workers", 0),
        layer_weights=_parse_layer_weights(flag("layer_weights"), flag("layers")),
    )
    return PipelineConfig(**{**fields, **fixed})


def _print_scores(out, title: str, scores: dict) -> None:
    print("", file=out)
    print(title, file=out)
    for name, s in sorted(scores.items()):
        print(
            f"  {name:<12} P={s.precision:.2f} R={s.recall:.2f} F1={s.f1:.2f}",
            file=out,
        )


def _cmd_detect_layers(args: argparse.Namespace, config, out) -> int:
    """``detect --layers``: one framework pass per layer, plus fusion."""
    from repro.actions import available_layers
    from repro.pipeline import MultiLayerPipeline

    spec = str(args.layers).strip()
    names = (
        available_layers()
        if spec.lower() == "all"
        else [n.strip() for n in spec.split(",") if n.strip()]
    )
    pipeline = MultiLayerPipeline(config, layers=names)
    result = pipeline.run_ndjson(args.input, **_ingest_mode(args))
    _print_skips(out, result.ingest)
    print(result.summary(), file=out)

    print("", file=out)
    print("top fused edges:", file=out)
    for edge in result.fused.top_edges(args.top):
        provenance = ", ".join(f"{n}:{w}" for n, w in edge.per_layer)
        print(
            f"  {edge.a} — {edge.b}  fused={edge.score:g}  [{provenance}]",
            file=out,
        )
    if args.truth:
        scores = score_detection(_load_truth(args.truth), result.fused_components)
        _print_scores(out, "ground-truth scoring (fused components):", scores)
    return 0


def _cmd_detect(args: argparse.Namespace, out) -> int:
    config = _pipeline_config(args)
    if args.layers:
        return _cmd_detect_layers(args, config, out)
    btm = _load_btm(args, out)
    result = CoordinationPipeline(config).run(btm)
    print(result.summary(), file=out)

    truth = _load_truth(args.truth) if args.truth else None
    census = census_components(result, truth)
    print("", file=out)
    print(
        format_table(
            [c.row() for c in census[: args.top]],
            title=f"top {min(args.top, len(census))} components:",
        ),
        file=out,
    )
    if truth is not None:
        scores = score_detection(truth, result.component_name_lists())
        _print_scores(out, "ground-truth scoring:", scores)
    if args.export_dot:
        written = result_to_dot(result, args.export_dot)
        print(f"\nwrote {len(written)} DOT files to {args.export_dot}", file=out)
    if args.report:
        from repro.analysis.summary import write_markdown_report

        write_markdown_report(args.report, result, btm=btm, truth=truth)
        print(f"wrote analysis report to {args.report}", file=out)
    return 0


def _cmd_figures(args: argparse.Namespace, out) -> int:
    btm = _load_btm(args, out)
    config = _pipeline_config(args)
    result = CoordinationPipeline(config).run(btm)
    sf = score_figure(result)
    wf = weight_figure(result)
    print(f"run: {config.describe()} — {result.n_triangles:,} triplets", file=out)
    print(f"\nC vs T (Figures 3/5/7/9 family): {sf.describe()}", file=out)
    print(sf.hist.render(), file=out)
    print(
        f"\nw_xyz vs min w' (Figures 4/6/8/10 family): {wf.describe()}",
        file=out,
    )
    print(wf.hist.render(), file=out)
    return 0


def _check_invariants(args: argparse.Namespace, btm) -> list[str]:
    """Run the paper's invariants on one projection; names of those run."""
    from repro import verify
    from repro.projection import project
    from repro.tripoll import survey_triangles, t_scores

    config = _pipeline_config(args)
    window = config.window
    executor = CoordinationPipeline(config).build_executor()
    try:
        proj = project(btm, window, executor=executor)
    finally:
        executor.close()
    triangles = survey_triangles(
        proj.ci.edges, min_edge_weight=config.min_triangle_weight
    )
    ran = verify.check_projection_invariants(
        proj.ci,
        triangles=triangles,
        t_values=t_scores(triangles, proj.ci.page_counts),
    )
    verify.check_window_monotonicity(
        btm, window, TimeWindow(window.delta1, window.delta2 * 2)
    )
    return ran + ["window_monotonicity"]


def _cmd_verify(args: argparse.Namespace, out) -> int:
    from repro import verify

    window = TimeWindow(args.delta1, args.delta2)
    sweep = dict(
        min_edge_weight=args.cutoff,
        bucket_width=args.bucket_width,
        parallel_workers=max(1, args.workers),
        shrink=not args.no_shrink,
    )
    epilogue = None
    if args.layers:
        dataset = RedditDatasetBuilder.multilayer(
            seed=args.seed, scale=args.scale
        ).build()
        report = verify.run_layer_parity(dataset.records, window, **sweep)
    else:
        btm = _PRESETS[args.preset](seed=args.seed, scale=args.scale).build().btm
        comments = list(
            zip(btm.users.tolist(), btm.pages.tolist(), btm.times.tolist())
        )
        named_comments = [
            (str(btm.user_names.key_of(u)), str(btm.page_names.key_of(p)), t)
            for u, p, t in comments
        ]
        # --executor/--workers drive the invariant check alone.
        config = _pipeline_config(args, executor="serial", n_workers=0)
        if args.online:
            report = verify.run_online_parity(
                named_comments,
                config,
                n_steps=args.steps,
                seed=args.seed,
                check_every=args.check_every,
            )
        elif args.sharded:
            counts = tuple(
                int(c) for c in str(args.shard_counts).split(",") if c.strip()
            )
            report = verify.run_sharded_parity(
                named_comments,
                config,
                shard_counts=counts or (1, 2),
                seed=args.seed,
            )
        elif args.chaos:
            report = verify.run_chaos(
                comments,
                window,
                seed=args.seed,
                min_triangle_weight=args.cutoff,
                n_ranks=args.chaos_ranks,
                backend=args.chaos_backend,
                barrier_deadline=args.chaos_deadline,
            )
        else:
            report = verify.run_parity(comments, window, **sweep)
            try:
                ran = _check_invariants(args, btm)
                epilogue = f"invariants ok: {', '.join(ran)}"
            except verify.InvariantViolation as exc:
                report.sections["invariants"] = [f"invariant violated: {exc}"]
    print(report.describe(), file=out)
    if epilogue:
        print(epilogue, file=out)
    return 0 if report.ok else 1


def _print_top(out, header: str, rows: list[dict], *, hypergraph: bool) -> None:
    """One ranked-triplet block: *header*, then a line per row."""
    print(header, file=out)
    if not rows:
        print("  (no triplets above the cutoff)", file=out)
    for row in rows:
        x, y, z = row["authors"]
        line = f"  {x} / {y} / {z}  min_w'={row['min_weight']} T={row['t']:.4f}"
        if hypergraph:
            line += f" w_xyz={row['w_xyz']} C={row['c']:.4f}"
        print(line, file=out)


def _print_shutdown(
    args,
    out,
    metrics,
    consumed: int,
    detail: str,
    top_k=None,
    *,
    hypergraph: bool,
) -> None:
    """The closing report of every serve variant: why, state, final top-k.

    *top_k* is the variant's ``top_k_triplets``; it is called only after
    the state lines are out, so a caller can catch its failure and still
    have reported the shutdown.  ``None`` skips the ranking.
    """
    interrupted = metrics.counter("service.interrupted").value
    why = "interrupt" if interrupted else "end of stream"
    print(f"\nshutdown ({why}): {consumed:,} events consumed", file=out)
    print(detail, file=out)
    if top_k is not None:
        rows = top_k(args.top, by=args.rank_by)
        _print_top(
            out,
            f"final top {args.top} by {args.rank_by}:",
            rows,
            hypergraph=hypergraph,
        )


def _durability(args: argparse.Namespace) -> dict:
    """The ``durability`` flag group as the durable services' kwargs."""
    names = ("fsync", "fsync_interval", "snapshot_every", "keep_snapshots",
             "wal_segment_bytes")
    return {name: getattr(args, name) for name in names}


def _supervision(args: argparse.Namespace) -> dict:
    """The ``supervision`` flag group's restart policy as kwargs."""
    names = ("heartbeat_timeout", "max_restarts", "restart_window",
             "backoff_base", "backoff_cap")
    return {name: getattr(args, name) for name in names}


def _input_lines(args: argparse.Namespace):
    """``--input`` as a line source: stdin for ``-``, else the file."""
    if args.input == "-":
        return nullcontext(sys.stdin)
    return open(args.input, "r", encoding="utf-8")


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.serve import DetectionService, DurableDetectionService

    config = _pipeline_config(args)
    if args.linger and args.http is None:
        raise _UsageError("--linger requires --http PORT")
    sharded = args.shards > 1 or args.http is not None
    if args.supervise and not sharded and not args.durable:
        raise _UsageError("--supervise requires --durable DIR")
    if sharded or args.supervise:
        return _serve_sharded(args, config, out)
    sink = _StatusSink(args, out)
    service_kwargs = dict(
        window_horizon=args.horizon,
        allowed_lateness=args.lateness,
        batch_size=args.batch_size,
        queue_capacity=args.queue_capacity,
        queue_policy=args.queue_policy,
    )
    if args.durable:
        service = DurableDetectionService(
            config, directory=args.durable, **_durability(args), **service_kwargs
        )
        print(service.recovery.describe(), file=out)
    else:
        service = DetectionService(config, **service_kwargs)

    def on_tick(svc, report) -> None:
        ticks = svc.metrics.counter("service.ticks").value
        if args.metrics_every and ticks % args.metrics_every == 0:
            status = svc.status()
            print(
                f"[tick {ticks}] live={status['live_comments']:,} "
                f"pages={status['live_pages']:,} "
                f"edges={status['thresholded_edges']:,} "
                f"triangles={status['triangles']:,} "
                f"watermark={status['watermark']} "
                f"queue={status['queue_depth']}",
                file=out,
            )
            _print_top(
                out,
                f"[tick {ticks}] top {args.top} by {args.rank_by}:",
                svc.top_k_triplets(args.top, by=args.rank_by),
                hypergraph=config.compute_hypergraph,
            )

    sink.bind(service.status)
    try:
        with _input_lines(args) as lines:
            consumed = service.run_ndjson(
                lines, on_tick=on_tick, max_events=args.max_events
            )

        status = service.status()
        sink.bind(status)
        _print_shutdown(
            args,
            out,
            service.metrics,
            consumed,
            f"final state: live={status['live_comments']:,} "
            f"pages={status['live_pages']:,} "
            f"edges={status['thresholded_edges']:,} "
            f"triangles={status['triangles']:,} "
            f"malformed={status['ingest_malformed']:,}",
            service.top_k_triplets,
            hypergraph=config.compute_hypergraph,
        )
        print("", file=out)
        print(service.metrics.format(), file=out)
        if args.durable:
            service.close()
            print(f"durable state persisted to {args.durable}", file=out)
    except BaseException as exc:
        sink.write(error=exc)
        raise
    sink.write()
    return 0


class _StatusSink:
    """The one ``--status-json`` write path shared by every serve variant.

    Created before the service, bound to its ``status()`` as soon as one
    exists, and fired exactly once — on the normal exit path *or* on an
    error unwind (then with an ``"error"`` field) — so even a crashed
    serve run leaves a final snapshot behind for operators to read.
    """

    def __init__(self, args: argparse.Namespace, out) -> None:
        self.path = getattr(args, "status_json", None)
        self.out = out
        self.extra: dict = {}
        self._source = None
        self._written = False

    def bind(self, source) -> None:
        """*source* is a ``status()`` callable or an already-built dict."""
        self._source = source

    def _snapshot(self, error: BaseException | None = None) -> dict:
        if callable(self._source):
            try:
                status = dict(self._source())
            except Exception as exc:
                status = {"status_error": f"{type(exc).__name__}: {exc}"}
        elif self._source is not None:
            status = dict(self._source)
        else:
            status = {}
        status.update(self.extra)
        if error is not None:
            status["error"] = f"{type(error).__name__}: {error}"
        return status

    def _emit(self, status: dict) -> None:
        atomic_write_text(
            Path(self.path),
            json.dumps(status, indent=2, default=str),
        )

    def checkpoint(self) -> None:
        """Write a live snapshot *now* without consuming the final write.

        Lets a long-running serve publish runtime facts early — e.g. the
        ephemeral port an ``--http 0`` gateway actually bound — so
        harnesses can discover them while the stream is still flowing.
        The exactly-once final :meth:`write` still happens at shutdown.
        """
        if self._written or not self.path:
            return
        self._emit(self._snapshot())

    def write(self, error: BaseException | None = None) -> None:
        """Write the snapshot once; later calls are no-ops."""
        if self._written or not self.path:
            return
        self._written = True
        self._emit(self._snapshot(error))
        print(f"wrote status snapshot to {self.path}", file=self.out)


def _serve_sharded(args: argparse.Namespace, config, out) -> int:
    """``serve --supervise | --shards N [--http PORT]``: the supervised tier.

    Every shard runs as a supervised worker process; ``--supervise``
    alone runs one.  With ``--durable DIR`` each journals to its own
    ``DIR/shard-NN`` store.  ``--http`` fronts the tier with the stdlib
    gateway; ``--linger`` keeps it answering after the stream ends.
    SIGTERM is treated like SIGINT (graceful drain + final report), so
    a plain ``kill`` — e.g. from a CI step — still exits 0.
    """
    import signal
    import time

    from repro.serve import HttpGateway, ShardedDetectionService
    from repro.serve.ingest import iter_ndjson_events
    from repro.serve.shard import ShardUnavailableError

    sink = _StatusSink(args, out)
    service = ShardedDetectionService(
        config,
        n_shards=max(1, args.shards),
        directory=args.durable,
        **_supervision(args),
        forward_batch=args.batch_size,
        queue_capacity=args.queue_capacity,
        window_horizon=args.horizon,
        allowed_lateness=args.lateness,
        batch_size=args.batch_size,
        **(_durability(args) if args.durable else {}),
    )
    sink.bind(service.status)
    mode = "durable" if args.durable else "volatile"
    print(
        f"sharded tier: {service.n_shards} {mode} shard(s), "
        f"ingest = crc32(page) % {service.n_shards}, "
        "queries = cross-shard ledger exchange",
        file=out,
    )
    for entry in service.status()["shards"]:
        shard = entry.get("status", {})
        store = f", store {shard['durable_dir']}" if "durable_dir" in shard else ""
        print(
            f"shard {entry['shard']}: child pid {shard.get('child_pid')}{store}",
            file=out,
        )
        print(f"  {shard.get('last_recovery')}", file=out)

    def _graceful(_sig, _frame):
        raise KeyboardInterrupt

    try:
        prev_term = signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # not the main thread (in-process test harness)
        prev_term = None
    gateway = None
    exit_code = 0
    try:
        if args.http is not None:
            gateway = HttpGateway(
                service, host=args.http_host, port=args.http
            ).start()
            host, port = gateway.address
            # Publish the bound address (ephemeral under --http 0) both
            # in the final snapshot and in an immediate checkpoint, so
            # harnesses can discover the port while the stream runs.
            sink.extra["http"] = {
                "host": host,
                "port": port,
                "url": gateway.url,
            }
            sink.checkpoint()
            print(f"http gateway listening on {gateway.url}", file=out)
        with _input_lines(args) as lines:
            consumed = service.run_events(
                iter_ndjson_events(lines), max_events=args.max_events
            )
        interrupted = service.metrics.counter("service.interrupted").value
        if args.linger and gateway is not None and not interrupted:
            print(
                f"\nstream consumed ({consumed:,} events); answering "
                "queries until interrupt",
                file=out,
            )
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                pass
        status = service.status()
        sink.bind(status)
        up = sum(1 for s in status["shards"] if s["up"])
        restarts = int(service.metrics.counter("sharded.restarts").value)
        shed = int(service.metrics.counter("sharded.shed").value)
        try:
            _print_shutdown(
                args,
                out,
                service.metrics,
                consumed,
                f"shards: {up}/{status['n_shards']} up, "
                f"restarts={restarts}, shed={shed:,}",
                service.top_k_triplets,
                hypergraph=config.compute_hypergraph,
            )
        except (ShardUnavailableError, ValueError) as exc:
            print(f"final top-k unavailable: {exc}", file=out)
        if args.durable:
            print(f"durable state persisted to {args.durable}", file=out)
        exit_code = 0 if status["healthy"] else 1
    except BaseException as exc:
        sink.write(error=exc)
        raise
    finally:
        if prev_term is not None:
            signal.signal(signal.SIGTERM, prev_term)
        if gateway is not None:
            gateway.close()
        service.close()
    sink.write()
    return exit_code


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "recommend": _cmd_recommend,
        "detect": _cmd_detect,
        "figures": _cmd_figures,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args, out)
    except (_UsageError, StoreLayoutError) as exc:
        print(exc, file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
