"""EXT — §6 data-structure study: sparse vs dense blockmodel storage.

The paper's conclusion points at "data structures that are more suited
to repeated reconstruction" of B. This bench measures, across block
counts C, the costs the two representations trade:

* full reconstruction from an edge list (the A-SBP per-sweep barrier),
* a burst of O(degree) move updates (the serial MH path),
* live memory footprint,

for the dense numpy matrix vs the ``sparse`` storage engine
(:class:`~repro.sbm.block_storage.SparseBlockState`: per-row sorted
arrays with a mirrored column index), at the fill levels real
blockmodels exhibit early (C large, B very sparse) and late (C small,
B dense) in the agglomerative schedule.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from repro import DCSBMParams, generate_dcsbm
from repro.bench.reporting import format_table, write_report
from repro.sbm.block_storage import SparseBlockState
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.delta import vertex_move_context


def storage_rows(seed: int = 0):
    graph, _ = generate_dcsbm(
        DCSBMParams(num_vertices=400, num_communities=8,
                    within_between_ratio=5.0, mean_degree=8.0),
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    rows = []
    for C in (8, 40, 200, 400):
        assignment = rng.integers(0, C, graph.num_vertices)
        src_blocks = assignment[graph.edges[:, 0]]
        dst_blocks = assignment[graph.edges[:, 1]]

        start = time.perf_counter()
        for _ in range(5):
            bm = Blockmodel.from_assignment(graph, assignment, C)
        dense_rebuild = (time.perf_counter() - start) / 5

        start = time.perf_counter()
        for _ in range(5):
            sparse = SparseBlockState.from_edges(src_blocks, dst_blocks, C)
        sparse_rebuild = (time.perf_counter() - start) / 5
        sparse_bytes = sparse.memory_bytes()

        # burst of 200 random move updates on each representation
        moves = []
        for _ in range(200):
            v = int(rng.integers(graph.num_vertices))
            s = int(rng.integers(C))
            ctx = vertex_move_context(bm, graph, v)
            if s != ctx.r:
                moves.append((v, s, ctx))
        start = time.perf_counter()
        bm_work = bm.copy()
        for v, s, ctx in moves:
            # same apply-then-invert protocol as the sparse side below
            bm_work.apply_move(v, s, ctx.t_out, ctx.c_out, ctx.t_in,
                               ctx.c_in, ctx.loops, ctx.deg_out, ctx.deg_in)
            bm_work.apply_move(v, ctx.r, ctx.t_out, ctx.c_out, ctx.t_in,
                               ctx.c_in, ctx.loops, ctx.deg_out, ctx.deg_in)
        dense_moves = time.perf_counter() - start

        start = time.perf_counter()
        for v, s, ctx in moves:
            # apply then invert: contexts were computed against the
            # initial state, so each move is rolled back (cost-only).
            sparse.apply_move(ctx.r, s, ctx.t_out, ctx.c_out,
                              ctx.t_in, ctx.c_in, ctx.loops)
            sparse.apply_move(s, ctx.r, ctx.t_out, ctx.c_out,
                              ctx.t_in, ctx.c_in, ctx.loops)
        sparse_moves = time.perf_counter() - start

        rows.append(
            {
                "C": C,
                "fill": sparse.density,
                "dense_rebuild_ms": dense_rebuild * 1e3,
                "sparse_rebuild_ms": sparse_rebuild * 1e3,
                "dense_moves_ms": dense_moves * 1e3,
                "sparse_moves_ms": sparse_moves * 1e3,
                "dense_bytes": C * C * 8,
                "sparse_bytes": sparse_bytes,
            }
        )
    return rows


def test_sparse_storage_study(benchmark):
    rows = run_once(benchmark, storage_rows, seed=0)
    report = format_table(
        rows,
        title="Extension: sparse vs dense blockmodel storage (paper §6)",
    )
    write_report("extension_sparse_storage", report)

    # The motivating crossover: at singleton-scale C the sparse engine
    # uses far less memory than the dense one...
    big = rows[-1]
    assert big["sparse_bytes"] < big["dense_bytes"]
    # ...while at small C (post-merge) dense is at worst comparable.
    small = rows[0]
    assert small["dense_bytes"] <= small["sparse_bytes"] * 4
    # Fill fraction drops as C grows (fixed E spread over C^2 cells).
    fills = [r["fill"] for r in rows]
    assert all(b <= a for a, b in zip(fills, fills[1:]))
