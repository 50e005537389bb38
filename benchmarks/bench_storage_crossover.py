"""Storage crossover: dense vs sparse vs hybrid engines across C.

The agglomerative schedule starts with many blocks (B very sparse: at
C = O(V) only ~E of the C^2 cells are occupied) and ends with few (B
effectively dense). The ``--block-storage`` engines trade costs along
that path; this bench measures, at E = 8C planted edges per size:

* **rebuild** — ``from_edges`` (the per-sweep barrier reconstruction),
* **sweep**   — a barrier ``scatter_edges`` burst and its undo, each
  followed by a ``gather`` of the cells it wrote (the read the next
  batch-kernel call makes, so no engine can defer a write past it),
  plus a proposal-read mix (``sym_row_cdf`` + ``row_gather``),
* **merge scan** — ``merge_delta_batch`` over every block (the
  nonzero-triplet walk the vectorized merge backend runs),
* **memory** — live ``memory_bytes()`` of each engine; for hybrid both
  cold (fresh) and warm (after a sweep burst populated the LRU line
  caches — the steady-state footprint),

and asserts all engines stay cell-for-cell equal per size. The
crossover C where each engine starts winning is recorded in
``BENCH_storage_crossover.json`` and discussed in DESIGN.md §5.

Run ``python benchmarks/bench_storage_crossover.py`` (full: C up to
8192, enforces the PR-6 acceptance bounds) or ``--quick`` (CI smoke:
C up to 1024, fewer repetitions, no bounds).

``--whole-fit`` measures whole A-SBP ``run_sbp`` fits of planted DCSBMs
instead: V=2100 on dense, sparse, hybrid and auto, V=10,000 on sparse,
hybrid and auto (``--quick``: the V=2100 sparse, hybrid and auto rows
only). ``auto`` starts on hybrid at both sizes and runs dense once
C <= 2048. Each fit runs in a fresh process so its peak RSS is its own;
the rows record seconds, the ``barrier_apply`` bucket and peak RSS, and
the harness asserts that every engine of a size returns the same
assignment and MDL.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from repro.bench.reporting import format_table, write_report
from repro.core.sbp import run_sbp
from repro.core.variants import SBPConfig
from repro.generators import DCSBMParams, generate_dcsbm
from repro.graph.graph import Graph
from repro.sbm.block_storage import (
    DenseBlockState,
    HybridBlockState,
    SparseBlockState,
)
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.delta import merge_delta_batch

FULL_SIZES = [64, 256, 1024, 4096, 8192]
QUICK_SIZES = [64, 256, 1024]
SEED = 41
EDGES_PER_BLOCK = 8
#: sweep probe: fraction of edges rescattered + proposal reads per burst
MOVED_EDGE_FRACTION = 0.02
PROPOSAL_READS = 200


def _edges(C: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Planted block edges: mostly diagonal-heavy, like a real chain state."""
    E = EDGES_PER_BLOCK * C
    src = rng.integers(0, C, E)
    # ~60% of edges stay within the source block, the rest go anywhere —
    # the diagonal-dominant shape real partitions settle into.
    within = rng.random(E) < 0.6
    dst = np.where(within, src, rng.integers(0, C, E))
    return src.astype(np.int64), dst.astype(np.int64)


def _time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_burst(state, src, dst, rng) -> None:
    """One barrier scatter + a proposal-read mix on ``state``."""
    m = max(1, int(MOVED_EDGE_FRACTION * len(src)))
    # unique edge indices: removing one edge twice would (correctly) trip
    # the sparse engine's negative-count check
    pick = rng.permutation(len(src))[:m]
    C = state.num_blocks
    new_dst = rng.integers(0, C, m).astype(np.int64)
    # Each scatter is followed by a gather of the cells it wrote: in a fit
    # the next batch-kernel call (or the sweep's MDL) reads the state
    # before anything writes it again.
    written_rows = np.concatenate([src[pick], src[pick]])
    written_cols = np.concatenate([dst[pick], new_dst])
    state.scatter_edges(src[pick], dst[pick], src[pick], new_dst)
    state.gather(written_rows, written_cols)
    state.scatter_edges(src[pick], new_dst, src[pick], dst[pick])  # undo
    state.gather(written_rows, written_cols)
    reads = rng.integers(0, C, PROPOSAL_READS).astype(np.int64)
    for u in reads[:50]:
        state.sym_row_cdf(int(u))
    state.row_gather(int(reads[0]), reads)
    state.col_gather(int(reads[0]), reads)


def _merge_scan_bm(C: int, src, dst, storage: str) -> Blockmodel:
    """A Blockmodel over a vertex-per-block graph for the scan probe."""
    graph = Graph(C, np.stack([src, dst], axis=1))
    assignment = np.arange(C, dtype=np.int64)
    return Blockmodel.from_assignment(graph, assignment, C, storage=storage)


def crossover_rows(sizes: list[int], reps: int) -> list[dict]:
    rows = []
    for C in sizes:
        rng = np.random.default_rng(SEED)
        src, dst = _edges(C, rng)
        row: dict[str, object] = {"C": C, "E": len(src)}

        dense = DenseBlockState.from_edges(src, dst, C)
        sparse = SparseBlockState.from_edges(src, dst, C)
        hybrid = HybridBlockState.from_edges(src, dst, C)
        assert sparse.equals_dense(dense.to_dense()), f"engines diverge at C={C}"
        assert np.array_equal(hybrid.to_dense(), dense.to_dense()), (
            f"hybrid diverges at C={C}"
        )
        row["density"] = round(dense.density, 4)
        row["dense_bytes"] = dense.memory_bytes()
        row["sparse_bytes"] = sparse.memory_bytes()
        row["hybrid_bytes"] = hybrid.memory_bytes()  # cold: empty caches

        row["dense_rebuild_s"] = _time(
            partial(DenseBlockState.from_edges, src, dst, C), reps
        )
        row["sparse_rebuild_s"] = _time(
            partial(SparseBlockState.from_edges, src, dst, C), reps
        )
        row["hybrid_rebuild_s"] = _time(
            partial(HybridBlockState.from_edges, src, dst, C), reps
        )

        sweep_rng = np.random.default_rng(SEED + 1)
        row["dense_sweep_s"] = _time(
            partial(_sweep_burst, dense, src, dst, sweep_rng), reps
        )
        sweep_rng = np.random.default_rng(SEED + 1)
        row["sparse_sweep_s"] = _time(
            partial(_sweep_burst, sparse, src, dst, sweep_rng), reps
        )
        sweep_rng = np.random.default_rng(SEED + 1)
        row["hybrid_sweep_s"] = _time(
            partial(_sweep_burst, hybrid, src, dst, sweep_rng), reps
        )
        # Warm footprint: the line caches as a sweep leaves them.
        row["hybrid_warm_bytes"] = hybrid.memory_bytes()
        assert sparse.equals_dense(dense.to_dense()), f"sweep diverged at C={C}"
        assert np.array_equal(hybrid.to_dense(), dense.to_dense()), (
            f"hybrid sweep diverged at C={C}"
        )

        blocks = np.arange(C, dtype=np.int64)
        targets = np.roll(blocks, 1)
        bm_dense = _merge_scan_bm(C, src, dst, "dense")
        bm_sparse = _merge_scan_bm(C, src, dst, "sparse")
        bm_hybrid = _merge_scan_bm(C, src, dst, "hybrid")
        row["dense_scan_s"] = _time(
            partial(merge_delta_batch, bm_dense, blocks, targets), reps
        )
        row["sparse_scan_s"] = _time(
            partial(merge_delta_batch, bm_sparse, blocks, targets), reps
        )
        row["hybrid_scan_s"] = _time(
            partial(merge_delta_batch, bm_hybrid, blocks, targets), reps
        )
        scan_d = merge_delta_batch(bm_dense, blocks, targets)
        for name, bm in (("sparse", bm_sparse), ("hybrid", bm_hybrid)):
            scan_x = merge_delta_batch(bm, blocks, targets)
            assert np.array_equal(scan_d, scan_x), (
                f"{name} scan deltas diverge at C={C}"
            )
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    table = [
        {
            "C": r["C"],
            "density": r["density"],
            "dense_MiB": round(r["dense_bytes"] / 2**20, 2),
            "sparse_MiB": round(r["sparse_bytes"] / 2**20, 2),
            "hybrid_warm_MiB": round(r["hybrid_warm_bytes"] / 2**20, 2),
            "sweep_dense_ms": round(r["dense_sweep_s"] * 1e3, 2),
            "sweep_sparse_ms": round(r["sparse_sweep_s"] * 1e3, 2),
            "sweep_hybrid_ms": round(r["hybrid_sweep_s"] * 1e3, 2),
            "rebuild_dense_ms": round(r["dense_rebuild_s"] * 1e3, 2),
            "rebuild_sparse_ms": round(r["sparse_rebuild_s"] * 1e3, 2),
            "scan_dense_ms": round(r["dense_scan_s"] * 1e3, 2),
            "scan_sparse_ms": round(r["sparse_scan_s"] * 1e3, 2),
        }
        for r in rows
    ]
    return format_table(
        table,
        title="dense vs sparse vs hybrid storage across C (E = 8C, numpy kernels)",
    )


#: (V, engines) of the whole-fit rows.
WHOLE_FIT_CASES = [
    (2100, ("dense", "sparse", "hybrid", "auto")),
    (10_000, ("sparse", "hybrid", "auto")),
]
QUICK_WHOLE_FIT_CASES = [(2100, ("sparse", "hybrid", "auto"))]
WHOLE_FIT_GRAPH_SEED = 3
WHOLE_FIT_CHAIN_SEED = 7


def _whole_fit(num_vertices: int, storage: str) -> dict:
    """One A-SBP fit; run in a fresh process so peak RSS is this fit's."""
    graph, _ = generate_dcsbm(
        DCSBMParams(
            num_vertices=num_vertices, num_communities=8,
            within_between_ratio=10.0, mean_degree=10.0,
        ),
        seed=WHOLE_FIT_GRAPH_SEED,
    )
    config = SBPConfig(
        variant="a-sbp", seed=WHOLE_FIT_CHAIN_SEED, block_storage=storage
    )
    start = time.perf_counter()
    result = run_sbp(graph, config)
    seconds = time.perf_counter() - start
    return {
        "V": num_vertices,
        "E": graph.num_edges,
        "storage": storage,
        "start_engine": result.block_storage,
        "seconds": round(seconds, 3),
        "barrier_apply_s": round(result.timings.barrier_apply, 3),
        "peak_rss_mib": round(result.timings.peak_rss_bytes / 2**20, 1),
        "num_blocks": result.num_blocks,
        "mdl": result.mdl,
        "assignment_sha256": hashlib.sha256(
            result.assignment.astype("<i8").tobytes()
        ).hexdigest()[:16],
    }


def whole_fit_rows(cases: list[tuple[int, tuple[str, ...]]]) -> list[dict]:
    rows = []
    spawn = multiprocessing.get_context("spawn")
    for num_vertices, engines in cases:
        first = None
        for storage in engines:
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                row = pool.submit(_whole_fit, num_vertices, storage).result()
            print(json.dumps(row), flush=True)
            first = first or row
            assert (row["assignment_sha256"], row["mdl"]) == (
                first["assignment_sha256"], first["mdl"]
            ), f"V={num_vertices}: {storage} diverges from {first['storage']}"
            rows.append(row)
    return rows


def render_whole_fit(rows: list[dict]) -> str:
    return format_table(
        [
            {key: r[key] for key in (
                "V", "storage", "start_engine", "seconds", "barrier_apply_s",
                "peak_rss_mib", "num_blocks",
            )}
            for r in rows
        ],
        title="whole A-SBP fits: auto storage follows C (identical bytes)",
    )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: C up to 1024, single repetition",
    )
    parser.add_argument(
        "--whole-fit", action="store_true",
        help="time whole A-SBP fits per engine instead of single operations",
    )
    args = parser.parse_args(argv)
    if args.whole_fit:
        rows = whole_fit_rows(QUICK_WHOLE_FIT_CASES if args.quick else WHOLE_FIT_CASES)
        write_report("storage_whole_fit", render_whole_fit(rows))
        print(json.dumps(rows, indent=2))
        return 0
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    reps = 1 if args.quick else 3
    rows = crossover_rows(sizes, reps)
    write_report("storage_crossover", render(rows))
    print(json.dumps(rows, indent=2))
    # The headline claim the checked-in JSON records: at the largest C
    # the matrix is sparse enough that the sparse engine wins on memory.
    largest = rows[-1]
    assert largest["sparse_bytes"] < largest["dense_bytes"], (
        f"sparse engine lost on memory at C={largest['C']}: "
        f"{largest['sparse_bytes']} >= {largest['dense_bytes']} bytes"
    )
    if not args.quick:
        # PR-6 acceptance bounds (full mode only — --quick runs a single
        # repetition and its timings are too noisy to gate on).
        for r in rows:
            bound = 1.5 * r["dense_sweep_s"]
            assert r["hybrid_sweep_s"] <= bound, (
                f"hybrid sweep burst too slow at C={r['C']}: "
                f"{r['hybrid_sweep_s']:.5f}s > 1.5 x dense "
                f"{r['dense_sweep_s']:.5f}s"
            )
            if r["C"] >= 4096:
                cap = 0.25 * r["dense_bytes"]
                assert r["hybrid_warm_bytes"] <= cap, (
                    f"hybrid warm footprint too big at C={r['C']}: "
                    f"{r['hybrid_warm_bytes']} > 25% of dense "
                    f"{r['dense_bytes']} bytes"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
