"""Incremental MDL deltas for vertex moves and block merges.

Both SBP phases are dominated by evaluating ``delta MDL`` for proposed
state changes (paper §2.2: "Computing dMDL and the subsequent updates to
B are the two main computational bottlenecks of SBP"). Using the
expansion ``L = sum g(B_ij) - sum g(d_out) - sum g(d_in)`` with
``g(x) = x log x`` (see :mod:`repro.sbm.entropy`), a vertex move r -> s
only changes:

* matrix cells ``(r, t)``/``(s, t)`` for blocks ``t`` that v points to,
* cells ``(t, r)``/``(t, s)`` for blocks that point to v,
* the four intersection cells ``(r,r), (r,s), (s,r), (s,s)``,
* the four degree entries ``d_out[r], d_out[s], d_in[r], d_in[s]``.

That is O(degree(v)) work per proposal instead of O(C) row scans — the
same sparsity the authors' C++ implementation exploits.

During MCMC sweeps the number of blocks C is constant, so the model
complexity terms of Eq. 2 cancel and ``dS = -dL``. During the merge
phase the C-dependent terms are identical for every candidate merge of
the same round, so ranking merges by ``-dL`` (as Alg. 1 does) is
unaffected; the full MDL including complexity terms is recomputed at
phase boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.entropy import xlogx_counts as _g
from repro.types import FloatArray, IntArray
from repro.utils.arrays import expand_ranges

__all__ = [
    "VertexMoveContext",
    "vertex_move_context",
    "vertex_move_delta",
    "hastings_correction",
    "merge_delta",
    "merge_delta_batch",
]


def _seq_sum(terms: np.ndarray) -> float:
    """Strictly left-to-right float sum (``cumsum``'s last element).

    Pairwise ``np.sum`` rounds differently from the sequential
    accumulation the vectorized backend uses, so the reduction order is
    part of the bit-identity contract.
    """
    if terms.size == 0:
        return 0.0
    return float(np.cumsum(terms)[-1])


def _g_scalar(x: float) -> float:
    """``x log x`` with the ``0 log 0 = 0`` convention, scalar form."""
    return 0.0 if x <= 0 else float(x * np.log(x))


@dataclass
class VertexMoveContext:
    """Neighbour-block profile of one vertex under the current assignment.

    Computed once per proposal and shared by the delta evaluation, the
    Hastings correction and (on acceptance) the in-place state update.

    ``t_out``/``c_out``: sorted unique blocks reached by v's out-edges
    (self-loops excluded) and the edge multiplicities; ``t_in``/``c_in``
    likewise for in-edges. ``t_all``/``c_all`` is the merged support used
    by the Hastings correction.
    """

    v: int
    r: int
    t_out: IntArray
    c_out: IntArray
    t_in: IntArray
    c_in: IntArray
    t_all: IntArray
    c_all: IntArray
    loops: int
    deg_out: int
    deg_in: int

    @property
    def degree(self) -> int:
        return self.deg_out + self.deg_in


def vertex_move_context(bm: Blockmodel, graph: Graph, v: int) -> VertexMoveContext:
    """Build the :class:`VertexMoveContext` for vertex ``v``."""
    assignment = bm.assignment
    out_nbrs = graph.out_neighbors(v)
    in_nbrs = graph.in_neighbors(v)
    out_other = out_nbrs[out_nbrs != v]
    in_other = in_nbrs[in_nbrs != v]
    t_out, c_out = _unique_counts(assignment[out_other])
    t_in, c_in = _unique_counts(assignment[in_other])
    t_all, c_all = _merge_support(t_out, c_out, t_in, c_in)
    return VertexMoveContext(
        v=v,
        r=int(assignment[v]),
        t_out=t_out,
        c_out=c_out,
        t_in=t_in,
        c_in=c_in,
        t_all=t_all,
        c_all=c_all,
        loops=int(graph.self_loops[v]),
        deg_out=int(graph.out_degree[v]),
        deg_in=int(graph.in_degree[v]),
    )


def vertex_move_delta(bm: Blockmodel, ctx: VertexMoveContext, s: int) -> float:
    """``dS = MDL_after - MDL_before`` for moving ``ctx.v`` to block ``s``.

    Negative values improve the description length. Only the likelihood
    part of Eq. 2 varies (C is constant during a sweep).
    """
    r = ctx.r
    if s == r:
        return 0.0
    st = bm.state

    delta_g = 0.0

    # Generic out cells: (r, t) loses c, (s, t) gains c, for t not in {r, s}.
    if ctx.t_out.size:
        mask = (ctx.t_out != r) & (ctx.t_out != s)
        t = ctx.t_out[mask]
        c = ctx.c_out[mask].astype(np.float64)
        if t.size:
            row_r = st.row_gather(r, t).astype(np.float64)
            row_s = st.row_gather(s, t).astype(np.float64)
            terms = _g(row_r - c) - _g(row_r) + _g(row_s + c) - _g(row_s)
            delta_g += _seq_sum(terms)

    # Generic in cells: (t, r) loses c, (t, s) gains c.
    if ctx.t_in.size:
        mask = (ctx.t_in != r) & (ctx.t_in != s)
        t = ctx.t_in[mask]
        c = ctx.c_in[mask].astype(np.float64)
        if t.size:
            col_r = st.col_gather(r, t).astype(np.float64)
            col_s = st.col_gather(s, t).astype(np.float64)
            terms = _g(col_r - c) - _g(col_r) + _g(col_s + c) - _g(col_s)
            delta_g += _seq_sum(terms)

    # Intersection cells receive combined row + column (+ self-loop) deltas.
    k_out_r, k_out_s = _count_at(ctx.t_out, ctx.c_out, r, s)
    k_in_r, k_in_s = _count_at(ctx.t_in, ctx.c_in, r, s)
    corners = (
        (st.get(r, r), -k_out_r - k_in_r - ctx.loops),
        (st.get(r, s), -k_out_s + k_in_r),
        (st.get(s, r), k_out_r - k_in_s),
        (st.get(s, s), k_out_s + k_in_s + ctx.loops),
    )
    for old, diff in corners:
        if diff:
            delta_g += _g_scalar(float(old) + diff) - _g_scalar(float(old))

    # Degree terms: L subtracts g(d_out) and g(d_in), so dL gets -(delta g(d)).
    delta_deg = (
        _g_scalar(float(bm.d_out[r] - ctx.deg_out))
        - _g_scalar(float(bm.d_out[r]))
        + _g_scalar(float(bm.d_out[s] + ctx.deg_out))
        - _g_scalar(float(bm.d_out[s]))
        + _g_scalar(float(bm.d_in[r] - ctx.deg_in))
        - _g_scalar(float(bm.d_in[r]))
        + _g_scalar(float(bm.d_in[s] + ctx.deg_in))
        - _g_scalar(float(bm.d_in[s]))
    )

    delta_likelihood = delta_g - delta_deg
    return -delta_likelihood


def hastings_correction(bm: Blockmodel, ctx: VertexMoveContext, s: int) -> float:
    """Metropolis-Hastings proposal-asymmetry correction ``p_rev / p_fwd``.

    Follows the GraphChallenge SBP baseline: the probability of proposing
    block ``x`` from vertex v is a degree-weighted mixture over v's
    neighbour blocks ``t``: ``sum_t k_t * (B[t,x] + B[x,t] + 1) / (d_t + C)``.
    The reverse probability is evaluated against the post-move state,
    reconstructed here from the context in O(degree) without touching B.
    """
    r = ctx.r
    if s == r:
        return 1.0
    t = ctx.t_all
    if t.size == 0:
        return 1.0
    k = ctx.c_all.astype(np.float64)
    C = float(bm.num_blocks)
    st = bm.state

    d_t = bm.d[t].astype(np.float64)
    fwd = k * (st.col_gather(s, t) + st.row_gather(s, t) + 1.0) / (d_t + C)

    # Post-move cells B'[t, r] and B'[r, t] over the support, and d'.
    b_tr = st.col_gather(r, t).astype(np.float64)
    b_rt = st.row_gather(r, t).astype(np.float64)
    # in-edges leave column r; out-edges leave row r.
    b_tr -= _scatter(ctx.t_in, ctx.c_in, t)
    b_rt -= _scatter(ctx.t_out, ctx.c_out, t)
    # Corrections where t is r or s (the intersection cells).
    k_out_r, k_out_s = _count_at(ctx.t_out, ctx.c_out, r, s)
    k_in_r, k_in_s = _count_at(ctx.t_in, ctx.c_in, r, s)
    idx_r = np.searchsorted(t, r)
    if idx_r < t.size and t[idx_r] == r:
        # B'[r, r] = B[r,r] - k_out_r - k_in_r - loops; the two scatter
        # subtractions above applied -k_in_r to b_tr and -k_out_r to b_rt,
        # so only the remaining parts are adjusted here.
        b_tr[idx_r] += -k_out_r - ctx.loops
        b_rt[idx_r] += -k_in_r - ctx.loops
    idx_s = np.searchsorted(t, s)
    if idx_s < t.size and t[idx_s] == s:
        # B'[s, r] = B[s,r] + k_out_r - k_in_s ; scatter gave -k_in_s.
        b_tr[idx_s] += k_out_r
        # B'[r, s] = B[r,s] - k_out_s + k_in_r ; scatter gave -k_out_s.
        b_rt[idx_s] += k_in_r

    d_new = d_t.copy()
    d_new[t == r] -= ctx.degree
    d_new[t == s] += ctx.degree
    bwd = k * (b_tr + b_rt + 1.0) / (d_new + C)

    p_fwd = _seq_sum(fwd)
    p_bwd = _seq_sum(bwd)
    if p_fwd <= 0.0:
        return 1.0
    return p_bwd / p_fwd


def merge_delta(bm: Blockmodel, r: int, s: int) -> float:
    """``dS`` (likelihood part) for merging block ``r`` into ``s`` (Alg. 1).

    O(C) using the two affected rows and columns. Generic terms are
    reduced with :func:`_seq_sum` (strict left-to-right accumulation) so
    :func:`merge_delta_batch` can reproduce the result bit-for-bit.
    """
    if r == s:
        return 0.0
    st = bm.state
    C = bm.num_blocks
    mask = np.ones(C, dtype=bool)
    mask[r] = False
    mask[s] = False

    row_r = st.dense_row(r)[mask].astype(np.float64)
    row_s = st.dense_row(s)[mask].astype(np.float64)
    col_r = st.dense_col(r)[mask].astype(np.float64)
    col_s = st.dense_col(s)[mask].astype(np.float64)

    delta_g = _seq_sum(_g(row_r + row_s) - _g(row_r) - _g(row_s)) + _seq_sum(
        _g(col_r + col_s) - _g(col_r) - _g(col_s)
    )
    corner_new = float(st.get(s, s) + st.get(r, s) + st.get(s, r) + st.get(r, r))
    delta_g += (
        _g_scalar(corner_new)
        - _g_scalar(float(st.get(s, s)))
        - _g_scalar(float(st.get(r, s)))
        - _g_scalar(float(st.get(s, r)))
        - _g_scalar(float(st.get(r, r)))
    )

    delta_deg = (
        _g_scalar(float(bm.d_out[r] + bm.d_out[s]))
        - _g_scalar(float(bm.d_out[r]))
        - _g_scalar(float(bm.d_out[s]))
        + _g_scalar(float(bm.d_in[r] + bm.d_in[s]))
        - _g_scalar(float(bm.d_in[r]))
        - _g_scalar(float(bm.d_in[s]))
    )

    return -(delta_g - delta_deg)


def merge_delta_batch(bm: Blockmodel, r: IntArray, s: IntArray) -> FloatArray:
    """Batch :func:`merge_delta` over aligned candidate arrays ``r``, ``s``.

    Bit-identical to the scalar oracle, but O(nnz) instead of O(C) per
    candidate. The key identity: a generic term
    ``g(B[r,t] + B[s,t]) - g(B[r,t]) - g(B[s,t])`` is exactly ``+0.0``
    unless *both* cells are non-zero, and adding ``+0.0`` never perturbs
    an IEEE float sum (no term is ``-0.0``). So only the support
    *intersections* of the two merged rows (and columns) contribute:
    they are materialized as (candidate, block, count) triplets via one
    sorted merge over CSR/CSC walks of ``B`` and reduced per candidate
    with ``np.add.at`` — sequential accumulation in ascending block
    order, the same order :func:`_seq_sum` gives the serial oracle.
    Duplicate ``(r, s)`` pairs — frequent, since each block draws
    several proposals from one CDF — are evaluated once and scattered
    back.
    """
    r = np.asarray(r, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if r.shape != s.shape or r.ndim != 1:
        raise ValueError("r and s must be aligned 1-D candidate arrays")
    out = np.zeros(r.shape[0], dtype=np.float64)
    live = r != s  # merging a block with itself is a no-op (delta 0)
    if not live.any():
        return out

    st = bm.state
    C = bm.num_blocks
    keys = r[live] * C + s[live]
    ukeys, inv = np.unique(keys, return_inverse=True)
    ur = ukeys // C
    us = ukeys % C

    # Sparse views of B: CSR (row-major nonzeros) and CSC (column-major).
    nz_r, nz_c, nz_v = st.nonzero()
    row_ptr = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(np.bincount(nz_r, minlength=C), out=row_ptr[1:])
    csc_order = np.argsort(nz_c * C + nz_r, kind="stable")
    col_ptr = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(np.bincount(nz_c, minlength=C), out=col_ptr[1:])

    delta_g = _intersection_terms(
        ur, us, C, row_ptr, nz_c, nz_v
    ) + _intersection_terms(
        ur, us, C, col_ptr, nz_r[csc_order], nz_v[csc_order]
    )

    # Intersection cells collapse onto the merged diagonal entry.
    brr = st.gather(ur, ur).astype(np.float64)
    brs = st.gather(ur, us).astype(np.float64)
    bsr = st.gather(us, ur).astype(np.float64)
    bss = st.gather(us, us).astype(np.float64)
    corner_new = bss + brs + bsr + brr
    delta_g = delta_g + (_g(corner_new) - _g(bss) - _g(brs) - _g(bsr) - _g(brr))

    do_r = bm.d_out[ur].astype(np.float64)
    do_s = bm.d_out[us].astype(np.float64)
    di_r = bm.d_in[ur].astype(np.float64)
    di_s = bm.d_in[us].astype(np.float64)
    delta_deg = (
        _g(do_r + do_s) - _g(do_r) - _g(do_s)
        + _g(di_r + di_s) - _g(di_r) - _g(di_s)
    )

    out[live] = (-(delta_g - delta_deg))[inv]
    return out


def _intersection_terms(
    ur: IntArray,
    us: IntArray,
    C: int,
    ptr: IntArray,
    support: IntArray,
    values: IntArray,
) -> FloatArray:
    """Per-pair ``sum_t g(a_t + b_t) - g(a_t) - g(b_t)`` over shared support.

    ``ptr``/``support``/``values`` describe a CSR-like structure (rows of
    ``B`` or of ``B^T``); for every pair ``(ur[p], us[p])`` the two
    sparse lines are walked, tagged with the pair index, and merged by a
    stable sort on ``(pair, block)`` — entries sharing both land
    adjacently (line ``ur`` first), yielding the intersection triplets.
    Blocks ``t in {r, s}`` are the corner cells and are excluded here.
    """
    num_pairs = ur.shape[0]
    acc = np.zeros(num_pairs, dtype=np.float64)
    len_r = ptr[ur + 1] - ptr[ur]
    len_s = ptr[us + 1] - ptr[us]
    idx_r = expand_ranges(ptr[ur], len_r)
    idx_s = expand_ranges(ptr[us], len_s)
    if idx_r.size == 0 or idx_s.size == 0:
        return acc
    pid = np.concatenate([
        np.repeat(np.arange(num_pairs, dtype=np.int64), len_r),
        np.repeat(np.arange(num_pairs, dtype=np.int64), len_s),
    ])
    blk = np.concatenate([support[idx_r], support[idx_s]])
    val = np.concatenate([values[idx_r], values[idx_s]])

    key = pid * C + blk
    order = np.argsort(key, kind="stable")  # ur-side precedes us-side on ties
    key = key[order]
    val = val[order]
    hit = key[:-1] == key[1:]
    if not hit.any():
        return acc
    i = np.nonzero(hit)[0]
    p = key[i] // C
    t = key[i] % C
    keep = (t != ur[p]) & (t != us[p])
    i = i[keep]
    p = p[keep]
    a = val[i].astype(np.float64)      # from row/col ur
    b = val[i + 1].astype(np.float64)  # from row/col us
    terms = _g(a + b) - _g(a) - _g(b)
    # Sorted by (pair, block): add.at accumulates each pair's terms in
    # ascending block order — bit-identical to the oracle's _seq_sum.
    np.add.at(acc, p, terms)
    return acc


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _unique_counts(blocks: IntArray) -> tuple[IntArray, IntArray]:
    """Sorted unique block ids and multiplicities (empty-safe)."""
    if blocks.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    t, c = np.unique(blocks, return_counts=True)
    return t.astype(np.int64), c.astype(np.int64)


def _merge_support(
    t_out: IntArray, c_out: IntArray, t_in: IntArray, c_in: IntArray
) -> tuple[IntArray, IntArray]:
    """Union of two sorted sparse count vectors."""
    if t_out.size == 0:
        return t_in, c_in
    if t_in.size == 0:
        return t_out, c_out
    t_all = np.union1d(t_out, t_in)
    c_all = _scatter(t_out, c_out, t_all).astype(np.int64) + _scatter(
        t_in, c_in, t_all
    ).astype(np.int64)
    return t_all, c_all


def _scatter(t_src: IntArray, c_src: IntArray, t_dst: IntArray) -> np.ndarray:
    """Counts of the sparse vector (t_src, c_src) evaluated at t_dst."""
    out = np.zeros(t_dst.shape[0], dtype=np.float64)
    if t_src.size == 0 or t_dst.size == 0:
        return out
    pos = np.searchsorted(t_dst, t_src)
    valid = (pos < t_dst.size) & (t_dst[np.minimum(pos, t_dst.size - 1)] == t_src)
    np.add.at(out, pos[valid], c_src[valid])
    return out


def _count_at(t: IntArray, c: IntArray, r: int, s: int) -> tuple[int, int]:
    """Multiplicities of blocks ``r`` and ``s`` in a sorted sparse vector."""
    k_r = 0
    k_s = 0
    if t.size:
        ir = np.searchsorted(t, r)
        if ir < t.size and t[ir] == r:
            k_r = int(c[ir])
        is_ = np.searchsorted(t, s)
        if is_ < t.size and t[is_] == s:
            k_s = int(c[is_])
    return k_r, k_s
