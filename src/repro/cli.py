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
  clean shutdown on EOF or SIGINT.  ``--shards N`` fans the stream out
  to N supervised engine shards partitioning the query keyspace by user
  hash; ``--http PORT`` fronts the tier with the stdlib HTTP gateway
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
from repro.graph.io import btm_from_ndjson, write_comments_ndjson
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow

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
    ver.add_argument("--ingest-modes", default="replicated,page",
                     help="comma-separated ingest modes for --sharded "
                     "(replicated fan-out and/or page-hash partitioning "
                     "with the partial-weight exchange)")
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
                     help="supervised engine shards partitioning the "
                          "query keyspace by user hash (>1 runs worker "
                          "processes; composes with --durable)")
    net.add_argument("--ingest-sharding", choices=["replicated", "page"],
                     default="replicated",
                     help="event routing across shards: replicated "
                          "(every event to every shard) or page "
                          "(page-hash partitioning; queries answered "
                          "from the cross-shard partial-weight exchange)")
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


def _load_btm(args: argparse.Namespace, out):
    """Load the input corpus, honoring the lenient-ingestion flags."""
    from repro.graph.io import IngestStats

    if not getattr(args, "skip_malformed", False):
        return btm_from_ndjson(args.input)
    stats = IngestStats()
    btm = btm_from_ndjson(
        args.input, errors="skip", quarantine=args.quarantine, stats=stats
    )
    if stats.malformed:
        where = (
            f" (quarantined to {stats.quarantined_to})"
            if stats.quarantined_to
            else ""
        )
        print(
            f"skipped {stats.malformed:,} malformed record(s) of "
            f"{stats.total_lines:,}{where}",
            file=out,
        )
    return btm


def _parse_layer_weights(spec: str | None) -> tuple[tuple[str, float], ...]:
    if not spec:
        return ()
    pairs = []
    for item in spec.split(","):
        name, _, value = item.partition("=")
        if not name.strip() or not value.strip():
            raise SystemExit(
                f"bad --layer-weights entry {item!r} (want name=weight)"
            )
        pairs.append((name.strip(), float(value)))
    return tuple(pairs)


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """The one place ``detect``'s flags become a :class:`PipelineConfig`."""
    return PipelineConfig(
        window=TimeWindow(args.delta1, args.delta2),
        min_triangle_weight=args.cutoff,
        author_filter=AuthorFilter.none() if args.no_filter else AuthorFilter(),
        compute_hypergraph=not args.no_hypergraph,
        time_bucket_width=args.buckets,
        executor=args.executor,
        n_workers=args.workers,
        layer_weights=_parse_layer_weights(args.layer_weights),
    )


def _cmd_detect_layers(args: argparse.Namespace, out) -> int:
    """``detect --layers``: one framework pass per layer, plus fusion."""
    from repro.actions import available_layers
    from repro.pipeline import MultiLayerPipeline

    spec = str(args.layers).strip()
    names = (
        available_layers()
        if spec.lower() == "all"
        else [n.strip() for n in spec.split(",") if n.strip()]
    )
    pipeline = MultiLayerPipeline(_pipeline_config(args), layers=names)
    result = pipeline.run_ndjson(
        args.input,
        errors="skip" if args.skip_malformed else "raise",
        quarantine=args.quarantine if args.skip_malformed else None,
    )
    if result.ingest is not None and result.ingest.malformed:
        print(
            f"skipped {result.ingest.malformed:,} malformed record(s) of "
            f"{result.ingest.total_lines:,}",
            file=out,
        )
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
        truth = _load_truth(args.truth)
        scores = score_detection(truth, result.fused_components)
        print("", file=out)
        print("ground-truth scoring (fused components):", file=out)
        for name, s in sorted(scores.items()):
            print(
                f"  {name:<12} P={s.precision:.2f} R={s.recall:.2f} "
                f"F1={s.f1:.2f}",
                file=out,
            )
    return 0


def _cmd_detect(args: argparse.Namespace, out) -> int:
    if args.layers:
        return _cmd_detect_layers(args, out)
    btm = _load_btm(args, out)
    result = CoordinationPipeline(_pipeline_config(args)).run(btm)
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
        print("", file=out)
        print("ground-truth scoring:", file=out)
        for name, s in sorted(scores.items()):
            print(
                f"  {name:<12} P={s.precision:.2f} R={s.recall:.2f} "
                f"F1={s.f1:.2f}",
                file=out,
            )
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
    config = PipelineConfig(
        window=TimeWindow(args.delta1, args.delta2),
        min_triangle_weight=args.cutoff,
    )
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


def _check_invariants(args: argparse.Namespace, btm, window) -> list[str]:
    """Run the paper's invariants on one projection; names of those run."""
    from repro import verify
    from repro.projection import project
    from repro.tripoll import survey_triangles, t_scores

    executor = CoordinationPipeline(
        PipelineConfig(executor=args.executor, n_workers=args.workers)
    ).build_executor()
    try:
        proj = project(btm, window, executor=executor)
    finally:
        executor.close()
    triangles = survey_triangles(proj.ci.edges, min_edge_weight=args.cutoff)
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
        builder = (
            RedditDatasetBuilder.jan2020_like(seed=args.seed, scale=args.scale)
            if args.preset == "jan2020"
            else RedditDatasetBuilder.oct2016_like(
                seed=args.seed, scale=args.scale
            )
        )
        btm = builder.build().btm
        comments = list(
            zip(btm.users.tolist(), btm.pages.tolist(), btm.times.tolist())
        )
        named_comments = [
            (str(btm.user_names.key_of(u)), str(btm.page_names.key_of(p)), t)
            for u, p, t in comments
        ]
        config = PipelineConfig(window=window, min_triangle_weight=args.cutoff)
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
            modes = tuple(
                m.strip()
                for m in str(args.ingest_modes).split(",")
                if m.strip()
            )
            report = verify.run_sharded_parity(
                named_comments,
                config,
                shard_counts=counts or (1, 2),
                ingest_modes=modes or ("replicated",),
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
                ran = _check_invariants(args, btm, window)
                epilogue = f"invariants ok: {', '.join(ran)}"
            except verify.InvariantViolation as exc:
                report.sections["invariants"] = [f"invariant violated: {exc}"]
    print(report.describe(), file=out)
    if epilogue:
        print(epilogue, file=out)
    return 0 if report.ok else 1


def _print_top(
    out, header: str, rows: list[dict], *, hypergraph: bool = True
) -> None:
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
    hypergraph: bool = True,
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


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from contextlib import nullcontext

    from repro.serve import DetectionService, DurableDetectionService

    config = PipelineConfig(
        window=TimeWindow(args.delta1, args.delta2),
        min_triangle_weight=args.cutoff,
        author_filter=AuthorFilter.none() if args.no_filter else AuthorFilter(),
        compute_hypergraph=not args.no_hypergraph,
    )
    if args.shards > 1 or args.http is not None:
        return _serve_sharded(args, config, out)
    if args.linger:
        print("--linger requires --http PORT", file=out)
        return 2
    if args.supervise:
        if not args.durable:
            print("--supervise requires --durable DIR", file=out)
            return 2
        return _serve_supervised(args, config, out)
    sink = _StatusSink(args, out)
    if args.durable:
        service = DurableDetectionService(
            config,
            directory=args.durable,
            fsync=args.fsync,
            fsync_interval=args.fsync_interval,
            snapshot_every=args.snapshot_every,
            keep_snapshots=args.keep_snapshots,
            wal_segment_bytes=args.wal_segment_bytes,
            window_horizon=args.horizon,
            allowed_lateness=args.lateness,
            batch_size=args.batch_size,
            queue_capacity=args.queue_capacity,
            queue_policy=args.queue_policy,
        )
        print(service.recovery.describe(), file=out)
    else:
        service = DetectionService(
            config,
            window_horizon=args.horizon,
            allowed_lateness=args.lateness,
            batch_size=args.batch_size,
            queue_capacity=args.queue_capacity,
            queue_policy=args.queue_policy,
        )

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
            )

    sink.bind(service.status)
    try:
        source = (
            nullcontext(sys.stdin)
            if args.input == "-"
            else open(args.input, "r", encoding="utf-8")
        )
        with source as lines:
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


def _serve_supervised(args: argparse.Namespace, config, out) -> int:
    """``serve --durable DIR --supervise``: watchdog parent + durable child."""
    from contextlib import nullcontext

    from repro.graph.io import IngestStats
    from repro.serve import ServeSupervisor
    from repro.serve.ingest import iter_ndjson_events

    supervisor = ServeSupervisor(
        config,
        directory=args.durable,
        queue_capacity=args.queue_capacity,
        queue_policy=args.queue_policy,
        forward_batch=args.batch_size,
        heartbeat_timeout=args.heartbeat_timeout,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        snapshot_every=args.snapshot_every,
        keep_snapshots=args.keep_snapshots,
        wal_segment_bytes=args.wal_segment_bytes,
        window_horizon=args.horizon,
        allowed_lateness=args.lateness,
        batch_size=args.batch_size,
    )
    sink = _StatusSink(args, out)
    sink.bind(supervisor.status)
    print(f"supervised child pid {supervisor.child_pid}", file=out)
    print(supervisor.last_recovery, file=out)
    try:
        stats = IngestStats()
        source = (
            nullcontext(sys.stdin)
            if args.input == "-"
            else open(args.input, "r", encoding="utf-8")
        )
        with source as lines:
            consumed = supervisor.run_events(
                iter_ndjson_events(lines, stats), max_events=args.max_events
            )
        status = supervisor.status()
        sink.bind(status)
        _print_shutdown(
            args,
            out,
            supervisor.metrics,
            consumed,
            f"supervision: restarts={status['restarts']} "
            f"degraded={status['degraded']} shed={status['shed_events']:,} "
            f"acked={status['acked_events']:,}",
            None if supervisor.degraded else supervisor.top_k_triplets,
        )
        supervisor.close()
        print(f"durable state persisted to {args.durable}", file=out)
    except BaseException as exc:
        sink.write(error=exc)
        raise
    sink.write()
    return 0 if not supervisor.degraded else 1


def _serve_sharded(args: argparse.Namespace, config, out) -> int:
    """``serve --shards N [--http PORT]``: sharded query tier + gateway.

    Every shard runs as a supervised worker process (``--supervise`` is
    implied); with ``--durable DIR`` each journals to its own
    ``DIR/shard-NN`` store.  ``--http`` fronts the tier with the stdlib
    gateway; ``--linger`` keeps it answering after the stream ends.
    SIGTERM is treated like SIGINT (graceful drain + final report), so
    a plain ``kill`` — e.g. from a CI step — still exits 0.
    """
    import signal
    import time
    from contextlib import nullcontext

    from repro.graph.io import IngestStats
    from repro.serve import HttpGateway, ShardedDetectionService
    from repro.serve.ingest import iter_ndjson_events
    from repro.serve.shard import ShardUnavailableError

    if args.linger and args.http is None:
        print("--linger requires --http PORT", file=out)
        return 2
    durable_kwargs = {}
    if args.durable:
        durable_kwargs = dict(
            fsync=args.fsync,
            fsync_interval=args.fsync_interval,
            snapshot_every=args.snapshot_every,
            keep_snapshots=args.keep_snapshots,
            wal_segment_bytes=args.wal_segment_bytes,
        )
    sink = _StatusSink(args, out)
    service = ShardedDetectionService(
        config,
        n_shards=max(1, args.shards),
        ingest_sharding=args.ingest_sharding,
        directory=args.durable,
        heartbeat_timeout=args.heartbeat_timeout,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        forward_batch=args.batch_size,
        queue_capacity=args.queue_capacity,
        window_horizon=args.horizon,
        allowed_lateness=args.lateness,
        batch_size=args.batch_size,
        **durable_kwargs,
    )
    sink.bind(service.status)
    mode = "durable" if args.durable else "volatile"
    ingest_rule = (
        f"crc32(page) % {service.n_shards} (partial-weight exchange)"
        if service.ingest_sharding == "page"
        else "replicated fan-out"
    )
    print(
        f"sharded tier: {service.n_shards} {mode} shard(s), "
        f"queries = crc32(author) % {service.n_shards}, "
        f"ingest = {ingest_rule}",
        file=out,
    )
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
        stats = IngestStats()
        source = (
            nullcontext(sys.stdin)
            if args.input == "-"
            else open(args.input, "r", encoding="utf-8")
        )
        with source as lines:
            consumed = service.run_events(
                iter_ndjson_events(lines, stats), max_events=args.max_events
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
                hypergraph=False,
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
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
