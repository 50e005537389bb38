"""Membership extension: argmax-ΔMDL insertion of unsampled vertices.

After the golden-section search fits the *sample*, every unsampled
vertex must be placed into one of the frozen blocks before the
full-graph fine-tune can start. This pass assigns each such vertex v to

    argmax_s ΔL(v -> s)

where L = Σ g(B_rt) − Σ g(d_out_r) − Σ g(d_in_t) is the DCSBM
log-likelihood of :func:`repro.sbm.entropy.dcsbm_log_likelihood` and the
blockmodel counts only edges whose *both* endpoints are already
assigned. Maximizing ΔL minimizes ΔMDL: the model-cost and label-cost
terms of Eq. 2 do not depend on the chosen block (C is frozen and the
newly activated edge count is the same for every candidate), so they
drop out of the argmax.

Insertion delta (derived from the count increments; ``Δg(x; δ)`` means
``g(x + δ) − g(x)`` and k_out/k_in are v's edge multiplicities into each
assigned block, self-loops excluded):

    ΔL(v -> s) =   Σ_{t ∈ T_out, t≠s} Δg(B[s,t]; k_out[t])
                 + Σ_{t ∈ T_in,  t≠s} Δg(B[t,s]; k_in[t])
                 + Δg(B[s,s]; k_out[s] + k_in[s] + loops)
                 − Δg(d_out[s] + k_in[s]; Σ_t k_out[t] + loops)
                 − Δg(d_in[s]  + k_out[s]; Σ_t k_in[t]  + loops)

(The ``d_out[t] += k_in[t]`` row-sum bumps for t≠s are s-independent and
dropped; the s-row corrections above are what remains.)

Batching contract
-----------------
Vertices are processed in degree-descending batches
(:func:`repro.mcmc.engine.degree_descending_batches`): every vertex in a
batch scores against the same frozen counts (the frozen-segment barrier
semantics of the sweep engine), then the batch is applied and its newly
activated edges are folded into B/d_out/d_in so *later batches see
earlier assignments*. Candidate scoring reuses the batched
neighbour-aggregation kernel of the vectorized backend
(:func:`repro.parallel.vectorized._neighbor_triplets`) on the partially
assigned graph: unassigned endpoints are masked to a sentinel block C
and filtered out.

Degenerate vertices — isolated, or with every neighbour still
unassigned — have an empty candidate set and fall back deterministically
to the largest assigned block (lowest id on ties), so no vertex is ever
silently dropped.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.mcmc.engine import degree_descending_batches
from repro.parallel.vectorized import _neighbor_triplets
from repro.sbm.entropy import xlogx_counts as _g
from repro.types import Assignment, IntArray
from repro.utils.arrays import expand_ranges

__all__ = ["extend_assignment"]


def _lookup_counts(
    keys_sorted: IntArray, counts: IntArray, queries: IntArray
) -> IntArray:
    """Multiplicity of each query key in a sorted (key, count) table, 0 if absent."""
    out = np.zeros(queries.shape[0], dtype=np.int64)
    if keys_sorted.size == 0:
        return out
    pos = np.searchsorted(keys_sorted, queries)
    pos_c = np.minimum(pos, keys_sorted.shape[0] - 1)
    hit = keys_sorted[pos_c] == queries
    out[hit] = counts[pos_c[hit]]
    return out


def _cross_terms(
    score: np.ndarray,
    B: np.ndarray,
    pair_vertex: IntArray,
    pair_block: IntArray,
    trip_vid: IntArray,
    trip_blk: IntArray,
    trip_cnt: IntArray,
    axis: int,
) -> None:
    """Accumulate Σ_{t≠s} Δg over one edge direction into ``score``.

    ``axis=0`` reads cells ``B[s, t]`` (out-edges), ``axis=1`` reads
    ``B[t, s]`` (in-edges). Triplets are sorted by vertex, so each
    pair's span is located with two binary searches and expanded into
    (pair, triplet) combinations.
    """
    if trip_vid.size == 0 or pair_vertex.size == 0:
        return
    lo = np.searchsorted(trip_vid, pair_vertex, side="left")
    hi = np.searchsorted(trip_vid, pair_vertex, side="right")
    reps = hi - lo
    combo_pair = np.repeat(np.arange(pair_vertex.shape[0], dtype=np.int64), reps)
    combo_trip = expand_ranges(lo, reps)
    if combo_trip.size == 0:
        return
    s = pair_block[combo_pair]
    t = trip_blk[combo_trip]
    keep = t != s
    if not keep.any():
        return
    s, t = s[keep], t[keep]
    cnt = trip_cnt[combo_trip[keep]]
    cells = B[s, t] if axis == 0 else B[t, s]
    terms = _g(cells + cnt) - _g(cells)
    score += np.bincount(
        combo_pair[keep], weights=terms, minlength=score.shape[0]
    )


def extend_assignment(
    graph: Graph,
    assignment: Assignment,
    num_blocks: int,
    num_batches: int,
) -> Assignment:
    """Complete a partial assignment by greedy argmax-ΔMDL insertion.

    Parameters
    ----------
    graph:
        The full graph.
    assignment:
        Length-V int64 vector; assigned vertices hold a block id in
        ``[0, num_blocks)``, unassigned vertices hold ``-1``.
    num_blocks:
        The frozen block count C from the sample fit.
    num_batches:
        Number of degree-descending barrier batches for the unassigned
        vertices (more batches = fresher counts for low-degree vertices,
        at slightly more kernel launches).

    Returns
    -------
    A new length-V assignment with every vertex in ``[0, num_blocks)``.
    Ties in the insertion score break toward the lowest block id;
    vertices with no assigned neighbour join the largest assigned block.
    """
    assignment = np.array(assignment, dtype=np.int64, copy=True)
    if assignment.shape != (graph.num_vertices,):
        raise ReproError(
            f"assignment must have shape ({graph.num_vertices},), "
            f"got {assignment.shape}"
        )
    C = int(num_blocks)
    assigned = assignment >= 0
    if not assigned.any():
        raise ReproError("extension requires at least one assigned vertex")
    if int(assignment.max()) >= C:
        raise ReproError("assignment references a block >= num_blocks")

    unassigned = np.nonzero(~assigned)[0].astype(np.int64)
    if unassigned.size == 0:
        return assignment

    # Partial blockmodel over both-endpoint-assigned edges only.
    lengths = np.diff(graph.out_ptr)
    tails = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), lengths)
    heads = graph.out_nbrs
    live = assigned[tails] & assigned[heads]
    B = np.bincount(
        assignment[tails[live]] * C + assignment[heads[live]], minlength=C * C
    ).astype(np.int64).reshape(C, C)
    d_out = B.sum(axis=1)
    d_in = B.sum(axis=0)
    sizes = np.bincount(assignment[assigned], minlength=C).astype(np.int64)
    loops = graph.self_loops

    for batch in degree_descending_batches(graph, unassigned, num_batches):
        m = batch.shape[0]
        # Neighbour-block multiplicities against the *frozen* counts:
        # mask unassigned endpoints to sentinel block C, aggregate with
        # the vectorized backend's kernel, then drop sentinel rows.
        masked = np.where(assignment >= 0, assignment, C)
        vo, bo, co = _neighbor_triplets(
            graph.out_ptr, graph.out_nbrs, masked, batch, C + 1
        )
        keep = bo != C
        vo, bo, co = vo[keep], bo[keep], co[keep]
        vi, bi, ci = _neighbor_triplets(
            graph.in_ptr, graph.in_nbrs, masked, batch, C + 1
        )
        keep = bi != C
        vi, bi, ci = vi[keep], bi[keep], ci[keep]

        ko_tot = np.bincount(vo, weights=co, minlength=m).astype(np.int64)
        ki_tot = np.bincount(vi, weights=ci, minlength=m).astype(np.int64)
        loops_b = loops[batch]

        out_keys = vo * C + bo
        in_keys = vi * C + bi
        pair_keys = np.unique(np.concatenate([out_keys, in_keys]))
        chosen = np.full(m, -1, dtype=np.int64)
        if pair_keys.size:
            pv = pair_keys // C
            ps = pair_keys % C
            k_out_s = _lookup_counts(out_keys, co, pair_keys)
            k_in_s = _lookup_counts(in_keys, ci, pair_keys)

            score = np.zeros(pair_keys.shape[0], dtype=np.float64)
            _cross_terms(score, B, pv, ps, vo, bo, co, axis=0)
            _cross_terms(score, B, pv, ps, vi, bi, ci, axis=1)
            corner = B[ps, ps]
            score += _g(corner + k_out_s + k_in_s + loops_b[pv]) - _g(corner)
            dout_base = d_out[ps] + k_in_s
            score -= _g(dout_base + ko_tot[pv] + loops_b[pv]) - _g(dout_base)
            din_base = d_in[ps] + k_out_s
            score -= _g(din_base + ki_tot[pv] + loops_b[pv]) - _g(din_base)

            # First-maximum per vertex group = lowest block id on ties
            # (pairs are sorted by (vertex, block)).
            uniq_v = np.unique(pv)
            grp_starts = np.searchsorted(pv, uniq_v)
            grp_max = np.maximum.reduceat(score, grp_starts)
            is_best = score == np.repeat(
                grp_max, np.diff(np.append(grp_starts, pv.shape[0]))
            )
            best_pos = np.nonzero(is_best)[0]
            firsts = best_pos[np.searchsorted(pv[best_pos], uniq_v)]
            chosen[uniq_v] = ps[firsts]

        # Fallback: no assigned neighbour at all -> largest block,
        # np.argmax breaks ties toward the lowest id.
        orphan = chosen < 0
        if orphan.any():
            chosen[orphan] = int(np.argmax(sizes))

        # Barrier: apply the batch, then activate its edges. Out-edges
        # of batch vertices count every now-assigned head (self-loops
        # once, within-batch edges once); in-edges add only tails
        # assigned before this batch, so nothing double-counts.
        assignment[batch] = chosen
        sizes += np.bincount(chosen, minlength=C)
        in_batch = np.zeros(graph.num_vertices, dtype=bool)
        in_batch[batch] = True

        o_len = graph.out_ptr[batch + 1] - graph.out_ptr[batch]
        o_idx = expand_ranges(graph.out_ptr[batch], o_len)
        o_tail = np.repeat(batch, o_len)
        o_head = graph.out_nbrs[o_idx]
        sel = assignment[o_head] >= 0
        new_r = assignment[o_tail[sel]]
        new_c = assignment[o_head[sel]]

        i_len = graph.in_ptr[batch + 1] - graph.in_ptr[batch]
        i_idx = expand_ranges(graph.in_ptr[batch], i_len)
        i_head = np.repeat(batch, i_len)
        i_tail = graph.in_nbrs[i_idx]
        sel = (assignment[i_tail] >= 0) & ~in_batch[i_tail]
        new_r = np.concatenate([new_r, assignment[i_tail[sel]]])
        new_c = np.concatenate([new_c, assignment[i_head[sel]]])

        if new_r.size:
            B += np.bincount(new_r * C + new_c, minlength=C * C).reshape(C, C)
            d_out += np.bincount(new_r, minlength=C)
            d_in += np.bincount(new_c, minlength=C)

    return assignment
