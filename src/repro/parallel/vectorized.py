"""Whole-sweep batch evaluation of the asynchronous-Gibbs pass.

Asynchronous Gibbs makes every vertex evaluation independent given the
frozen blockmodel; this backend exploits that independence with numpy
batch operations instead of threads — the single-core analogue of the
paper's 128 OpenMP workers (DESIGN.md §4, substitution 1). The stages:

1. **Propose** for all vertices at once: gather a random incident edge
   per vertex, apply the uniform/multinomial mixture, and perform the
   multinomial draws grouped by neighbour block (one shared CDF per
   block).
2. **Delta-MDL** for all vertices with ``s != r``: the sparse changed
   cells of every vertex are materialized as (vertex, block, count)
   triplets via one ``np.unique`` over the sweep's edge endpoints, then
   reduced per vertex with sequential ``np.add.at`` accumulation —
   exactly the order the serial oracle sums in (see
   ``repro.sbm.delta._seq_sum``), so decisions are bit-comparable.
3. **Hastings correction** from the same triplets.
4. **Accept** decisions from the pre-drawn uniforms.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.backend import ExecutionBackend, register_backend
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.entropy import xlogx_counts as _g
from repro.sbm.moves import MAX_EXPONENT as _MAX_EXPONENT
from repro.types import IntArray
from repro.utils.arrays import expand_ranges as _expand_ranges

__all__ = ["VectorizedBackend"]


class VectorizedBackend(ExecutionBackend):
    """Numpy batch evaluation of a full asynchronous-Gibbs sweep."""

    name = "vectorized"

    def evaluate_sweep(
        self,
        bm: Blockmodel,
        graph: Graph,
        vertices: IntArray,
        uniforms: np.ndarray,
        beta: float,
    ) -> tuple[np.ndarray, IntArray]:
        count = len(vertices)
        if count == 0:
            return np.zeros(0, dtype=bool), np.empty(0, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        C = bm.num_blocks
        assignment = bm.assignment
        state = bm.state
        r = assignment[vertices]

        targets = self._propose(bm, graph, vertices, uniforms, C)
        movers = targets != r
        accepted = np.zeros(count, dtype=bool)
        if not movers.any():
            return accepted, targets

        idx = np.nonzero(movers)[0]
        vm = vertices[idx]
        rm = r[idx]
        sm = targets[idx]
        M = idx.shape[0]

        # ---- sparse changed-cell triplets (vertex, block, count) -------
        t_out_vid, t_out_blk, t_out_cnt = _neighbor_triplets(
            graph.out_ptr, graph.out_nbrs, assignment, vm, C
        )
        t_in_vid, t_in_blk, t_in_cnt = _neighbor_triplets(
            graph.in_ptr, graph.in_nbrs, assignment, vm, C
        )
        loops = graph.self_loops[vm].astype(np.float64)

        # per-vertex multiplicities towards its own r and the proposed s
        kor = _pick_count(t_out_vid, t_out_blk, t_out_cnt, rm, M)
        kos = _pick_count(t_out_vid, t_out_blk, t_out_cnt, sm, M)
        kir = _pick_count(t_in_vid, t_in_blk, t_in_cnt, rm, M)
        kis = _pick_count(t_in_vid, t_in_blk, t_in_cnt, sm, M)

        delta_g = np.zeros(M, dtype=np.float64)
        _accumulate_generic(delta_g, state, t_out_vid, t_out_blk, t_out_cnt, rm, sm, axis=0)
        _accumulate_generic(delta_g, state, t_in_vid, t_in_blk, t_in_cnt, rm, sm, axis=1)

        # intersection cells, same order as the serial oracle
        brr = state.gather(rm, rm).astype(np.float64)
        brs = state.gather(rm, sm).astype(np.float64)
        bsr = state.gather(sm, rm).astype(np.float64)
        bss = state.gather(sm, sm).astype(np.float64)
        d1 = -kor - kir - loops
        d2 = -kos + kir
        d3 = kor - kis
        d4 = kos + kis + loops
        delta_g += _g(brr + d1) - _g(brr)
        delta_g += _g(brs + d2) - _g(brs)
        delta_g += _g(bsr + d3) - _g(bsr)
        delta_g += _g(bss + d4) - _g(bss)

        ko = graph.out_degree[vm].astype(np.float64)
        ki = graph.in_degree[vm].astype(np.float64)
        dor = bm.d_out[rm].astype(np.float64)
        dos = bm.d_out[sm].astype(np.float64)
        dir_ = bm.d_in[rm].astype(np.float64)
        dis = bm.d_in[sm].astype(np.float64)
        delta_deg = (
            _g(dor - ko) - _g(dor) + _g(dos + ko) - _g(dos)
            + _g(dir_ - ki) - _g(dir_) + _g(dis + ki) - _g(dis)
        )
        delta_s = -(delta_g - delta_deg)

        hastings = _batch_hastings(
            bm, C, M, rm, sm, loops,
            t_out_vid, t_out_blk, t_out_cnt,
            t_in_vid, t_in_blk, t_in_cnt,
            kor, kos, kir, kis, ko + ki,
        )

        # ---- accept decisions ------------------------------------------
        p = np.zeros(M, dtype=np.float64)
        pos = hastings > 0.0
        exponent = np.where(pos, -beta * delta_s + np.log(np.where(pos, hastings, 1.0)), -np.inf)
        p = np.where(exponent >= 0.0, 1.0,
                     np.where(exponent < -_MAX_EXPONENT, 0.0,
                              np.exp(np.clip(exponent, -_MAX_EXPONENT, 0.0))))
        accepted[idx] = uniforms[idx, 4] < p
        return accepted, targets

    # ------------------------------------------------------------------
    def _propose(
        self,
        bm: Blockmodel,
        graph: Graph,
        vertices: IntArray,
        uniforms: np.ndarray,
        C: int,
    ) -> IntArray:
        """Stage 1: batch neighbour-guided proposals (matches moves.py)."""
        count = vertices.shape[0]
        assignment = bm.assignment
        deg = graph.degree[vertices]
        # Floor-and-clamp draws, mirroring moves.py: identical for
        # u ∈ [0, 1), in-range at the u == 1.0 boundary.
        uniform_block = (uniforms[:count, 3] * C).astype(np.int64)
        np.minimum(uniform_block, C - 1, out=uniform_block)
        targets = uniform_block.copy()

        has_edges = deg > 0
        if not has_edges.any():
            return targets
        he = np.nonzero(has_edges)[0]
        edge_pick = (uniforms[he, 0] * deg[he]).astype(np.int64)
        np.minimum(edge_pick, deg[he] - 1, out=edge_pick)
        pick = graph.inc_ptr[vertices[he]] + edge_pick
        nb = graph.inc_nbrs[pick]
        u = assignment[nb]
        exploit = uniforms[he, 1] >= C / (bm.d[u] + C)
        he = he[exploit]
        u = u[exploit]
        if he.size == 0:
            return targets

        order = np.argsort(u, kind="stable")
        he_sorted = he[order]
        u_sorted = u[order]
        boundaries = np.nonzero(np.diff(u_sorted))[0] + 1
        group_starts = np.concatenate([[0], boundaries, [u_sorted.shape[0]]])
        for gi in range(group_starts.shape[0] - 1):
            lo, hi = int(group_starts[gi]), int(group_starts[gi + 1])
            if lo == hi:
                continue
            block = int(u_sorted[lo])
            row_cdf = bm.state.sym_row_cdf(block)
            rows = he_sorted[lo:hi]
            if row_cdf.total <= 0:
                continue  # keep the uniform fallback already in `targets`
            targets[rows] = row_cdf.draw_many(uniforms[rows, 2])
        return targets


def _neighbor_triplets(
    ptr: IntArray,
    nbrs: IntArray,
    assignment: IntArray,
    vm: IntArray,
    C: int,
) -> tuple[IntArray, IntArray, IntArray]:
    """Aggregate neighbour blocks of each mover into sorted triplets.

    Returns arrays (vertex-index, block, multiplicity), sorted by
    (vertex-index, block) ascending; self-loop endpoints are excluded as
    in :func:`repro.sbm.delta.vertex_move_context`.
    """
    starts = ptr[vm]
    lengths = ptr[vm + 1] - starts
    edge_idx = _expand_ranges(starts, lengths)
    if edge_idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    vid = np.repeat(np.arange(vm.shape[0], dtype=np.int64), lengths)
    w = nbrs[edge_idx]
    keep = w != vm[vid]
    vid = vid[keep]
    blk = assignment[w[keep]]
    keys = vid * C + blk
    ukeys, counts = np.unique(keys, return_counts=True)
    return ukeys // C, ukeys % C, counts.astype(np.int64)


def _pick_count(
    vid: IntArray, blk: IntArray, cnt: IntArray, wanted: IntArray, M: int
) -> np.ndarray:
    """Per-vertex multiplicity of the block ``wanted[vid]`` (float64)."""
    out = np.zeros(M, dtype=np.float64)
    if vid.size:
        sel = blk == wanted[vid]
        out[vid[sel]] = cnt[sel]
    return out


def _accumulate_generic(
    delta_g: np.ndarray,
    state,
    vid: IntArray,
    blk: IntArray,
    cnt: IntArray,
    rm: IntArray,
    sm: IntArray,
    axis: int,
) -> None:
    """Add the generic (non-intersection) changed-cell terms per vertex.

    ``axis=0`` handles out-edges (cells ``(r, t)`` / ``(s, t)``);
    ``axis=1`` handles in-edges (cells ``(t, r)`` / ``(t, s)``).
    """
    if vid.size == 0:
        return
    mask = (blk != rm[vid]) & (blk != sm[vid])
    if not mask.any():
        return
    v = vid[mask]
    t = blk[mask]
    c = cnt[mask].astype(np.float64)
    if axis == 0:
        cell_r = state.gather(rm[v], t).astype(np.float64)
        cell_s = state.gather(sm[v], t).astype(np.float64)
    else:
        cell_r = state.gather(t, rm[v]).astype(np.float64)
        cell_s = state.gather(t, sm[v]).astype(np.float64)
    terms = _g(cell_r - c) - _g(cell_r) + _g(cell_s + c) - _g(cell_s)
    np.add.at(delta_g, v, terms)


def _batch_hastings(
    bm: Blockmodel,
    C: int,
    M: int,
    rm: IntArray,
    sm: IntArray,
    loops: np.ndarray,
    t_out_vid: IntArray,
    t_out_blk: IntArray,
    t_out_cnt: IntArray,
    t_in_vid: IntArray,
    t_in_blk: IntArray,
    t_in_cnt: IntArray,
    kor: np.ndarray,
    kos: np.ndarray,
    kir: np.ndarray,
    kis: np.ndarray,
    degree: np.ndarray,
) -> np.ndarray:
    """Batch proposal-asymmetry correction over the union support."""
    state = bm.state
    n_out = t_out_vid.shape[0]
    keys = np.concatenate([t_out_vid * C + t_out_blk, t_in_vid * C + t_in_blk])
    if keys.size == 0:
        return np.ones(M, dtype=np.float64)
    cnts = np.concatenate([t_out_cnt, t_in_cnt]).astype(np.float64)
    ukeys, inv = np.unique(keys, return_inverse=True)
    U = ukeys.shape[0]
    k_all = np.zeros(U, dtype=np.float64)
    np.add.at(k_all, inv, cnts)
    c_out_u = np.zeros(U, dtype=np.float64)
    np.add.at(c_out_u, inv[:n_out], cnts[:n_out])
    c_in_u = np.zeros(U, dtype=np.float64)
    np.add.at(c_in_u, inv[n_out:], cnts[n_out:])

    hvid = ukeys // C
    ht = ukeys % C
    rt = rm[hvid]
    st = sm[hvid]
    d_t = bm.d[ht].astype(np.float64)
    Cf = float(C)

    fwd = k_all * (state.gather(ht, st) + state.gather(st, ht) + 1.0) / (d_t + Cf)
    p_fwd = np.zeros(M, dtype=np.float64)
    np.add.at(p_fwd, hvid, fwd)

    b_tr = state.gather(ht, rt).astype(np.float64) - c_in_u
    b_rt = state.gather(rt, ht).astype(np.float64) - c_out_u
    is_r = ht == rt
    is_s = ht == st
    b_tr[is_r] += -kor[hvid[is_r]] - loops[hvid[is_r]]
    b_rt[is_r] += -kir[hvid[is_r]] - loops[hvid[is_r]]
    b_tr[is_s] += kor[hvid[is_s]]
    b_rt[is_s] += kir[hvid[is_s]]
    d_new = d_t.copy()
    d_new[is_r] -= degree[hvid[is_r]]
    d_new[is_s] += degree[hvid[is_s]]
    bwd = k_all * (b_tr + b_rt + 1.0) / (d_new + Cf)
    p_bwd = np.zeros(M, dtype=np.float64)
    np.add.at(p_bwd, hvid, bwd)

    return np.where(p_fwd > 0.0, p_bwd / np.where(p_fwd > 0.0, p_fwd, 1.0), 1.0)


register_backend("vectorized", VectorizedBackend)
