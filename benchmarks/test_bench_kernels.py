"""Kernel layer vs pre-refactor loop equivalents — the bench trajectory.

Before the kernel extraction, every engine carried its own copy of the
window-bounds / pair-merge / triangle / hyperedge loops; the reference
twins in :mod:`repro.kernels` *are* those loops, frozen.  This bench
times each vectorized kernel against its twin on the same inputs and
emits a machine-readable ``BENCH_kernels.json`` next to the text
reports, so the speedup trajectory of the kernel layer is tracked
release over release rather than asserted once.

Scale knob: set ``BENCH_KERNELS_SCALE=tiny`` (CI smoke) to shrink the
inputs ~100× — same code paths, seconds instead of minutes.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks._figures import atomic_write_text
from repro.graph.edgelist import EdgeList
from repro.graph.ordering import degree_order
from repro.kernels import (
    cooccur_pairs,
    cooccur_pairs_reference,
    dedup_triples,
    hyperedge_count,
    hyperedge_count_reference,
    merge_triples,
    pair_ledger,
    pair_ledger_reference,
    pair_weights,
    pair_weights_reference,
    triangle_enum,
    triangle_enum_reference,
    window_bounds,
    window_bounds_reference,
)
from repro.projection.window import TimeWindow

RESULTS_DIR = Path(__file__).parent / "results"

TINY = os.environ.get("BENCH_KERNELS_SCALE", "").lower() == "tiny"
N_ROWS = 400 if TINY else 40_000
N_USERS = 40 if TINY else 2_000
N_PAGES = 20 if TINY else 1_000
N_VERTICES = 30 if TINY else 300
N_EDGES = 80 if TINY else 4_000
N_TRIPLETS = 50 if TINY else 5_000
N_HUB_PAGES = 20_000
N_DENSE_USERS = 30 if TINY else 300


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _corpus(rng):
    users = rng.integers(0, N_USERS, N_ROWS)
    pages = rng.integers(0, N_PAGES, N_ROWS)
    times = rng.integers(0, 86_400, N_ROWS)
    order = np.lexsort((times, pages))
    return users[order], pages[order], times[order]


def _set_dedup(pg, a, b):
    """A reference-style dedup: a Python set, sorted."""
    triples = sorted(set(zip(pg.tolist(), a.tolist(), b.tolist())))
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def _csr(slices):
    """``(indptr, page_ids)`` of per-user sorted distinct page arrays."""
    indptr = np.cumsum([0] + [s.shape[0] for s in slices]).astype(np.int64)
    return indptr, np.concatenate(slices).astype(np.int64)


def _hyperedge_row(name, indptr, page_ids, trips):
    """One ``hyperedge_count`` bench row: kernel and twin on *trips*."""
    ta, tb, tc = (np.ascontiguousarray(col) for col in trips.T)
    w_fast, fast_s = _timed(lambda: hyperedge_count(indptr, page_ids, ta, tb, tc))
    w_ref, ref_s = _timed(
        lambda: hyperedge_count_reference(indptr, page_ids, ta, tb, tc)
    )
    assert np.array_equal(w_fast, w_ref)
    return name, fast_s, ref_s


def test_bench_kernels(report_sink):
    rng = np.random.default_rng(7)
    window = TimeWindow(0, 60)
    users, pages, times = _corpus(rng)
    rows = []

    # window_bounds — the shared two-pointer behind every projection.
    (lo, hi), fast_s = _timed(lambda: window_bounds(pages, times, window))
    (lo_r, hi_r), ref_s = _timed(
        lambda: window_bounds_reference(pages, times, window)
    )
    assert np.array_equal(lo, lo_r) and np.array_equal(hi, hi_r)
    rows.append(("window_bounds", fast_s, ref_s))

    # cooccur_pairs — batched pair materialization vs per-page loops.
    def _fast_pairs():
        parts = [
            (pg, a, b)
            for pg, a, b, _n_obs in cooccur_pairs(
                users, pages, times, window, 1_000_000
            )
        ]
        return merge_triples(parts)

    (pg, a, b), fast_s = _timed(_fast_pairs)
    (pg_r, a_r, b_r, _), ref_s = _timed(
        lambda: cooccur_pairs_reference(users, pages, times, window)
    )
    assert np.array_equal(pg, pg_r)
    rows.append(("cooccur_pairs", fast_s, ref_s))

    # dedup_triples — the packed-key row sort vs the reference's Python
    # set, on the distinct triples repeated 1-3 times and shuffled.
    reps = rng.permutation(
        np.repeat(np.arange(pg.shape[0]), rng.integers(1, 4, pg.shape[0]))
    )
    raw = pg[reps], a[reps], b[reps]
    (pg_d, a_d, b_d), fast_s = _timed(lambda: dedup_triples(*raw))
    _, ref_s = _timed(lambda: _set_dedup(*raw))
    assert all(map(np.array_equal, (pg_d, a_d, b_d), (pg, a, b)))
    rows.append(("dedup_triples", fast_s, ref_s))

    # pair_weights + pair_ledger — the eq. 5/6 reductions.
    _, fast_s = _timed(lambda: pair_weights(a, b))
    _, ref_s = _timed(lambda: pair_weights_reference(a, b))
    rows.append(("pair_weights", fast_s, ref_s))
    _, fast_s = _timed(lambda: pair_ledger(pg, a, b, N_USERS))
    _, ref_s = _timed(lambda: pair_ledger_reference(pg, a, b, N_USERS))
    rows.append(("pair_ledger", fast_s, ref_s))

    # triangle_enum — degree-ordered wedge closure vs the triple loop.
    src = rng.integers(0, N_VERTICES, N_EDGES)
    dst = rng.integers(0, N_VERTICES, N_EDGES)
    keep = src != dst
    acc = EdgeList(src[keep], dst[keep]).accumulate()
    rank = degree_order(acc, N_VERTICES)

    def _fast_triangles():
        return sum(
            batch[0].shape[0]
            for batch in triangle_enum(
                acc.src, acc.dst, acc.weight, rank, N_VERTICES
            )
        )

    n_fast, fast_s = _timed(_fast_triangles)
    ref_tri, ref_s = _timed(
        lambda: triangle_enum_reference(acc.src, acc.dst, acc.weight)
    )
    assert n_fast == ref_tri[0].shape[0]
    rows.append(("triangle_enum", fast_s, ref_s))

    # hyperedge_count — vectorized membership vs per-triplet intersection,
    # in the sparse regime the probe path wins: two light authors (8
    # pages) and one of three hubs (every one of N_HUB_PAGES pages) per
    # triplet, so the smallest slices are short while the live pages would
    # make bitset rows long.
    light = [np.unique(rng.integers(0, N_PAGES, 8)) for _u in range(N_USERS)]
    hubs = [np.arange(N_HUB_PAGES)] * 3
    indptr, page_ids = _csr(light + hubs)
    pairs = np.sort(rng.integers(0, N_USERS, (N_TRIPLETS, 2)), axis=1)
    hub = N_USERS + rng.integers(0, 3, (N_TRIPLETS, 1))
    rows.append(
        _hyperedge_row("hyperedge_count", indptr, page_ids, np.hstack([pairs, hub]))
    )

    # hyperedge_count_dense — Step 3 at a dense cutoff: a few hundred
    # authors with long page lists, triplets in canonical order with 20
    # per (a, b) pair (batch-dense has ~22), so the kernel takes the
    # bitset path.
    n_dense, run = N_DENSE_USERS, 20
    indptr, page_ids = _csr(
        [
            np.sort(rng.choice(10 * n_dense, 2 * n_dense, replace=False))
            for _u in range(n_dense)
        ]
    )
    first = np.sort(rng.integers(0, n_dense - run - 1, N_TRIPLETS // run))
    second = first + 1 + rng.integers(0, n_dense - run - 1 - first)
    trips = np.column_stack(
        [
            np.repeat(first, run),
            np.repeat(second, run),
            (second[:, None] + np.arange(1, run + 1)).reshape(-1),
        ]
    )
    rows.append(_hyperedge_row("hyperedge_count_dense", indptr, page_ids, trips))

    # -- report ------------------------------------------------------------
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "scale": "tiny" if TINY else "full",
        "n_rows": N_ROWS,
        "kernels": {
            name: {
                "kernel_seconds": round(fast_s, 6),
                "reference_seconds": round(ref_s, 6),
                "speedup": round(ref_s / max(fast_s, 1e-9), 2),
            }
            for name, fast_s, ref_s in rows
        },
    }
    atomic_write_text(
        RESULTS_DIR / "BENCH_kernels.json", json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"Kernel vs pre-refactor loop ({payload['scale']} scale, "
        f"{N_ROWS:,} rows)"
    ]
    for name, fast_s, ref_s in rows:
        lines.append(
            f"{name:16s} kernel {fast_s * 1e3:9.2f} ms   "
            f"loop {ref_s * 1e3:9.2f} ms   "
            f"speedup {ref_s / max(fast_s, 1e-9):8.1f}x"
        )
    report_sink("kernels", "\n".join(lines))

    # The point of the layer: vectorized kernels must actually beat the
    # loops they replaced (pinned so a regression that de-vectorizes a
    # kernel fails loudly).  At tiny smoke scale timings are noise, so
    # the smoke run only checks the code paths and the JSON contract.
    if not TINY:
        for name, fast_s, ref_s in rows:
            assert fast_s < ref_s, f"{name}: kernel slower than loop twin"
