"""Proposal distributions and the Metropolis-Hastings acceptance rule.

Both SBP phases share the neighbour-guided proposal of the
GraphChallenge SBP lineage (Kao et al. 2017, Peixoto 2014): to propose a
new block for an entity currently in block ``r``,

1. pick a uniformly random incident edge and read its far endpoint's
   block ``u``;
2. with probability ``C / (d_u + C)`` propose a uniformly random block
   (exploration; dominates when ``u`` is weakly connected);
3. otherwise draw ``s`` from the multinomial ``(B[u, :] + B[:, u]) / d_u``
   (exploitation: blocks well-connected to ``u`` are likely).

All randomness is consumed from a pre-drawn uniform row (see
:mod:`repro.utils.rng`), which keeps every backend's decisions identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.graph import Graph
from repro.sbm.blockmodel import Blockmodel

__all__ = [
    "propose_vertex_move",
    "propose_block_merge",
    "propose_block_merges_batch",
    "accept_probability",
    "MAX_EXPONENT",
]

#: exp() argument clamp to avoid overflow; exp(700) ~ 1e304.
MAX_EXPONENT = 700.0


def propose_vertex_move(
    bm: Blockmodel, graph: Graph, v: int, uniforms: np.ndarray
) -> int:
    """Propose a block for vertex ``v``; may return its current block.

    ``uniforms`` is one row of a :class:`~repro.utils.rng.SweepRandomness`
    table (5 uniforms: edge pick, mixture, multinomial, uniform block,
    accept — the last is consumed by the caller).

    All index draws are floor-and-clamp (``min(int(u * n), n - 1)``):
    identical to the plain ``int(u * n)`` floor for ``u ∈ [0, 1)`` and
    safe at the ``u == 1.0`` boundary where the unclamped form indexes
    out of range.
    """
    C = bm.num_blocks
    degree = int(graph.degree[v])
    if degree == 0:
        return min(int(uniforms[3] * C), C - 1)
    incident = graph.incident_neighbors(v)
    neighbor = int(incident[min(int(uniforms[0] * degree), degree - 1)])
    u = int(bm.assignment[neighbor])
    d_u = int(bm.d[u])
    if uniforms[1] < C / (d_u + C):
        return min(int(uniforms[3] * C), C - 1)
    fallback = min(int(uniforms[3] * C), C - 1)
    return bm.state.sym_row_cdf(u).draw(uniforms[2], fallback)


def propose_block_merge(bm: Blockmodel, r: int, uniforms: np.ndarray) -> int:
    """Propose a block to merge block ``r`` into (never returns ``r``).

    Block-level analogue of :func:`propose_vertex_move`: the "incident
    edges" of block r are the entries of row/column r of B.
    """
    C = bm.num_blocks
    if C <= 1:
        raise ValueError("cannot propose a merge with fewer than two blocks")
    incident = bm.state.sym_row_cdf(r)
    if incident.total == 0:
        return _uniform_other(C, r, uniforms[3])
    u = incident.draw(uniforms[0], _uniform_other(C, r, uniforms[3]))
    d_u = int(bm.d[u])
    if uniforms[1] < C / (d_u + C):
        return _uniform_other(C, r, uniforms[3])
    s = bm.state.sym_row_cdf(u).draw(
        uniforms[2], _uniform_other(C, r, uniforms[3])
    )
    if s == r:
        return _uniform_other(C, r, uniforms[3])
    return s


def propose_block_merges_batch(bm: Blockmodel, uniforms: np.ndarray) -> np.ndarray:
    """Batch form of :func:`propose_block_merge`: all blocks in one shot.

    ``uniforms`` is the full ``(C, proposals, 4)`` table the serial loop
    consumes row by row; the returned ``(C, proposals)`` int64 target
    matrix is bit-identical to evaluating :func:`propose_block_merge` per
    candidate. The draw semantics survive vectorization because every
    inverse-CDF lookup is reduced to integer-exact comparisons: for an
    integer CDF, ``cdf[i] <= x`` holds iff ``cdf[i] <= floor(x)``, so the
    float draw ``u * total`` can be floored once and resolved against a
    single flattened CDF table with per-row offsets.
    """
    C = bm.num_blocks
    if C <= 1:
        raise ValueError("cannot propose a merge with fewer than two blocks")
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 3 or u.shape[0] != C or u.shape[2] < 4:
        raise ValueError(f"uniforms must have shape (C, proposals, >=4), got {u.shape}")

    # Fallback draw, uniform over the C - 1 blocks != r (see _uniform_other).
    r_col = np.arange(C, dtype=np.int64)[:, None]
    fb = (u[:, :, 3] * (C - 1)).astype(np.int64)
    np.minimum(fb, C - 2, out=fb)  # u == 1.0 boundary, mirrors _uniform_other
    fallback = fb + (fb >= r_col)
    targets = fallback.copy()

    # One compressed CDF table serves both multinomial stages: row r of
    # M = B + B^T is block r's incident-edge profile (stage 1) and the
    # neighbour-block weight vector of any stage-2 draw that landed on r.
    # M is built sparsely (symmetrized COO of B's non-zeros, sorted by
    # (row, col), duplicates segment-summed) and its global value cumsum
    # IS the per-row-offset CDF over non-zero entries only. Zero-weight
    # cells are CDF plateaus that searchsorted(side="right") can never
    # return, so dropping them leaves every draw bit-identical to the
    # dense row scan of the serial oracle.
    nz_r, nz_c, nz_v = bm.state.nonzero()
    key = np.concatenate([nz_r * C + nz_c, nz_c * C + nz_r])
    val = np.concatenate([nz_v, nz_v])
    order = np.argsort(key, kind="stable")
    key = key[order]
    val = val[order]
    if key.size:
        starts = np.concatenate(
            [[0], np.nonzero(np.diff(key))[0] + 1]
        ).astype(np.int64)
        mrow = key[starts] // C
        mcol = key[starts] % C
        mval = np.add.reduceat(val, starts)
    else:
        mrow = mcol = mval = np.empty(0, dtype=np.int64)

    row_ptr = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(np.bincount(mrow, minlength=C), out=row_ptr[1:])
    gcum = np.concatenate([[0], np.cumsum(mval)]).astype(np.int64)
    base = gcum[row_ptr[:-1]]     # cumulative totals of rows < r
    totals = gcum[row_ptr[1:]] - base
    flat = gcum[1:]               # the offset CDF itself

    live = np.nonzero(totals > 0)[0]  # rows with d_r == 0 keep the fallback
    if live.size == 0:
        return targets

    # Stage 1: intermediate block u from block r's incident profile.
    t_r = totals[live][:, None]
    q1 = np.floor(u[live, :, 0] * t_r).astype(np.int64)
    np.minimum(q1, t_r - 1, out=q1)
    ub = mcol[np.searchsorted(flat, q1 + base[live][:, None], side="right")]

    # Stage 2: exploration-vs-exploitation mixture, then the multinomial
    # over u's neighbour blocks for the exploiting candidates.
    d_u = bm.d[ub]
    exploit = u[live, :, 1] >= C / (d_u + C)
    t_u = totals[ub]
    q2 = np.floor(u[live, :, 2] * t_u).astype(np.int64)
    np.minimum(q2, np.maximum(t_u - 1, 0), out=q2)
    pos = np.searchsorted(flat, q2 + base[ub], side="right")
    s = mcol[np.minimum(pos, mcol.size - 1)]  # t_u == 0 rows masked below

    chosen = exploit & (t_u > 0) & (s != live[:, None])
    out_live = fallback[live]
    out_live[chosen] = s[chosen]
    targets[live] = out_live
    return targets


def accept_probability(delta_s: float, hastings: float, beta: float) -> float:
    """Metropolis-Hastings acceptance probability.

    ``min(1, exp(-beta * dS) * hastings)`` — dS is the MDL change
    (negative improves), hastings the proposal-asymmetry correction.
    """
    if hastings <= 0.0:
        return 0.0
    exponent = -beta * delta_s + math.log(hastings)
    if exponent >= 0.0:
        return 1.0
    if exponent < -MAX_EXPONENT:
        return 0.0
    return math.exp(exponent)


def _uniform_other(C: int, r: int, uniform: float) -> int:
    """Uniform draw over the C - 1 blocks different from ``r``."""
    s = min(int(uniform * (C - 1)), C - 2)
    return s + 1 if s >= r else s
