#!/usr/bin/env python
"""Processing a dump bigger than memory — the out-of-core workflow.

A real Pushshift month does not fit in RAM on a laptop.  This example
shows the production path for that case, end to end:

1. write a corpus to Pushshift-format ndjson (here synthetic, but the
   identical code processes a real ``RC_2020-01`` file);
2. pre-cost candidate windows from a streamed delay profile *before*
   projecting anything (the parameter-selection question of §3.2.3);
3. run the **streaming projection**: page-hash spill partitions on disk,
   one partition in memory at a time — the single-host analogue of the
   paper's page-parallel cluster decomposition;
4. continue with the normal Steps 2–3 on the (much smaller) CI graph.

Run:  python examples/large_dump_workflow.py
"""

import tempfile
from pathlib import Path

from repro import RedditDatasetBuilder, TimeWindow, survey_triangles
from repro.analysis import format_table, recommend_windows
from repro.graph.io import btm_from_ndjson, write_comments_ndjson
from repro.projection import project_streaming
from repro.projection.streaming import iter_ndjson_comments
from repro.tripoll import t_scores


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        dump = workdir / "RC_synthetic.ndjson"

        # -- 1. the "dump" --------------------------------------------------
        print("writing synthetic Pushshift-format dump…")
        dataset = RedditDatasetBuilder.jan2020_like(seed=31, scale=0.6).build()
        n = write_comments_ndjson(
            dump, (rec.to_pushshift_dict() for rec in dataset.records)
        )
        print(f"  {n:,} comments, {dump.stat().st_size / 1e6:.1f} MB on disk")

        # -- 2. window costing before any projection --------------------------
        # (For the profile we do load the BTM here; on a true out-of-core
        # corpus, run the same profiling on a sampled slice of the dump.)
        btm = btm_from_ndjson(dump)
        rows = [
            {
                "window": str(r.window),
                "basis": r.rationale,
                "predicted pairs": f"{r.predicted_pairs:,}",
                "relative cost": f"{r.relative_cost:.1f}x",
            }
            for r in recommend_windows(btm)
        ]
        print()
        print(format_table(rows, title="pre-projection window costing:"))

        # -- 3. streaming projection -------------------------------------------
        window = TimeWindow(0, 60)
        print(f"\nstreaming projection for {window} with 8 spill partitions…")
        result = project_streaming(
            iter_ndjson_comments(dump),
            window,
            spill_dir=workdir / "spill",
            n_partitions=8,
        )
        print(
            f"  {result.stats['comments_scanned']:,} comments → "
            f"{result.ci.n_edges:,} CI edges "
            f"(one of {result.stats['partitions']} partitions' rows in memory at a time)"
        )
        print("  " + result.timings.format().replace("\n", "\n  "))

        # -- 4. the rest of the pipeline runs on the compact CI graph ------------
        triangles = survey_triangles(result.ci.edges, min_edge_weight=25)
        scores = t_scores(triangles, result.ci.page_counts)
        comps = result.ci.threshold(25).components()
        print(
            f"\nSteps 2-3: {triangles.n_triangles:,} triangles above cutoff "
            f"25, T scores up to {scores.max():.2f}; "
            f"{len(comps)} candidate networks, e.g. "
            f"{[result.ci.author_name(v) for v in comps[0][:4]]}…"
        )


if __name__ == "__main__":
    main()
