#!/usr/bin/env python
"""Distributed execution — the same algorithms on the YGM runtime.

The paper runs its framework on LLNL clusters through YGM's asynchronous
distributed containers.  This example runs the identical distributed
plans on this library's YGM clone by handing the engines a
``YgmExecutor`` — projection with pages scattered across ranks,
TriPoll-style triangle surveying with wedge ranges closed against the
replicated join table, and label-propagation connected components — and
cross-checks every stage against the same plans run in-process.

Both backends are exercised: the deterministic in-process ``serial``
backend and the ``mp`` backend with real worker processes (same results;
on a 1-core box the mp backend simply pays process overhead).

Run:  python examples/distributed_pipeline.py
"""

import numpy as np

from repro import (
    AuthorFilter,
    RedditDatasetBuilder,
    TimeWindow,
    YgmWorld,
    project,
    survey_triangles,
)
from repro.datagen import BackgroundConfig, GptStyleBotnetConfig
from repro.exec import YgmExecutor
from repro.graph.components import (
    components_as_lists,
    distributed_components,
)
from repro.tripoll import survey_triangles_plan
from repro.util.timers import Timer


def main() -> None:
    print("generating a compact corpus…")
    dataset = (
        RedditDatasetBuilder(seed=3)
        .with_background(
            BackgroundConfig(n_users=800, n_pages=1200, n_comments=12_000)
        )
        .with_gpt_style_botnet(
            GptStyleBotnetConfig(n_bots=10, n_mixed_pages=80, n_self_pages=10)
        )
        .with_helpful_bots()
        .build()
    )
    btm, report = AuthorFilter().apply(dataset.btm)
    print(f"  {btm.n_comments:,} comments after filtering ({report})")
    window = TimeWindow(0, 60)

    # Single-process reference results.
    with Timer() as t_serial:
        ref_proj = project(btm, window)
        ref_tri = survey_triangles(ref_proj.ci.edges, min_edge_weight=10)
    ref_edges = ref_proj.ci.edges.to_dict()
    print(
        f"single-process: {len(ref_edges):,} CI edges, "
        f"{ref_tri.n_triangles:,} triangles in {t_serial.elapsed:.2f}s"
    )

    for backend in ("serial", "mp"):
        print(f"\n--- YGM backend: {backend} (4 ranks) ---")
        with YgmWorld(4, backend=backend) as world:
            executor = YgmExecutor(world)
            with Timer() as t1:
                dist_proj = project(btm, window, executor=executor)
            assert dist_proj.ci.edges.to_dict() == ref_edges
            assert np.array_equal(
                dist_proj.ci.page_counts, ref_proj.ci.page_counts
            )
            print(
                f"  step 1 distributed projection: "
                f"{dist_proj.ci.n_edges:,} edges in {t1.elapsed:.2f}s "
                "(matches single-process exactly)"
            )

            thresholded = dist_proj.ci.threshold(10).edges
            with Timer() as t2:
                dist_tri = survey_triangles_plan(
                    dist_proj.ci.edges, executor, min_edge_weight=10
                )
            assert dist_tri.as_tuples() == ref_tri.as_tuples()
            print(
                f"  step 2 distributed triangle survey: "
                f"{dist_tri.n_triangles:,} triangles in {t2.elapsed:.2f}s "
                "(matches single-process exactly)"
            )

            with Timer() as t3:
                labels = distributed_components(thresholded, world)
            serial_comps = components_as_lists(thresholded)
            n_dist = len({v for v in labels.values()})
            print(
                f"  distributed components: {n_dist} "
                f"(serial found {len(serial_comps)}) in {t3.elapsed:.2f}s"
            )
            print(
                f"  messages carried by the runtime: "
                f"{world.messages_delivered:,}"
            )


if __name__ == "__main__":
    main()
