"""Property tests: sparse delta-MDL kernels vs the full-recompute oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Blockmodel, Graph
from repro.sbm.delta import (
    hastings_correction,
    merge_delta,
    vertex_move_context,
    vertex_move_delta,
)
from repro.sbm.entropy import dcsbm_log_likelihood


def _random_state(seed: int, n: int = 24, m: int = 70, blocks: int = 5):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, (m, 2)).astype(np.int64)
    graph = Graph(n, edges)
    assignment = rng.integers(0, blocks, n).astype(np.int64)
    return graph, Blockmodel.from_assignment(graph, assignment, blocks), rng


class TestVertexMoveDelta:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_full_recompute(self, seed):
        graph, bm, rng = _random_state(seed)
        v = int(rng.integers(graph.num_vertices))
        s = int(rng.integers(bm.num_blocks))
        ctx = vertex_move_context(bm, graph, v)
        if s == ctx.r:
            assert vertex_move_delta(bm, ctx, s) == 0.0
            return
        delta = vertex_move_delta(bm, ctx, s)
        before = dcsbm_log_likelihood(bm.B, bm.d_out, bm.d_in)
        bm.apply_move(v, s, ctx.t_out, ctx.c_out, ctx.t_in, ctx.c_in,
                      ctx.loops, ctx.deg_out, ctx.deg_in)
        after = dcsbm_log_likelihood(bm.B, bm.d_out, bm.d_in)
        assert delta == pytest.approx(-(after - before), abs=1e-9)

    def test_self_loop_heavy_vertex(self):
        edges = np.array([[0, 0], [0, 0], [0, 1], [1, 2], [2, 0]], dtype=np.int64)
        graph = Graph(3, edges)
        bm = Blockmodel.from_assignment(graph, np.array([0, 1, 1]), 2)
        ctx = vertex_move_context(bm, graph, 0)
        assert ctx.loops == 2
        delta = vertex_move_delta(bm, ctx, 1)
        before = dcsbm_log_likelihood(bm.B, bm.d_out, bm.d_in)
        bm.apply_move(0, 1, ctx.t_out, ctx.c_out, ctx.t_in, ctx.c_in,
                      ctx.loops, ctx.deg_out, ctx.deg_in)
        after = dcsbm_log_likelihood(bm.B, bm.d_out, bm.d_in)
        assert delta == pytest.approx(-(after - before), abs=1e-9)

    def test_isolated_vertex_move(self):
        graph = Graph(3, np.array([[0, 1]], dtype=np.int64))
        bm = Blockmodel.from_assignment(graph, np.array([0, 0, 1]), 2)
        ctx = vertex_move_context(bm, graph, 2)
        # moving an isolated vertex changes nothing in the likelihood
        assert vertex_move_delta(bm, ctx, 0) == pytest.approx(0.0)

    def test_move_context_counts(self, tiny_graph, tiny_truth):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        ctx = vertex_move_context(bm, tiny_graph, 3)
        # vertex 3: out-edges to 0 (block 0) and 4 (block 1); in from 2.
        assert dict(zip(ctx.t_out.tolist(), ctx.c_out.tolist())) == {0: 1, 1: 1}
        assert dict(zip(ctx.t_in.tolist(), ctx.c_in.tolist())) == {0: 1}
        assert dict(zip(ctx.t_all.tolist(), ctx.c_all.tolist())) == {0: 2, 1: 1}


class TestHastings:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_reverse_state_reconstruction(self, seed):
        """The O(degree) reverse-state rebuild must match applying the move."""
        graph, bm, rng = _random_state(seed)
        v = int(rng.integers(graph.num_vertices))
        s = int(rng.integers(bm.num_blocks))
        ctx = vertex_move_context(bm, graph, v)
        if s == ctx.r or ctx.t_all.size == 0:
            assert hastings_correction(bm, ctx, s) == 1.0
            return
        h = hastings_correction(bm, ctx, s)

        # Oracle: apply the move, compute both proposal masses directly.
        C = float(bm.num_blocks)
        t = ctx.t_all
        k = ctx.c_all.astype(np.float64)
        fwd = (k * (bm.B[t, s] + bm.B[s, t] + 1.0) / (bm.d[t] + C)).sum()
        moved = bm.copy()
        moved.apply_move(v, s, ctx.t_out, ctx.c_out, ctx.t_in, ctx.c_in,
                         ctx.loops, ctx.deg_out, ctx.deg_in)
        r = ctx.r
        bwd = (k * (moved.B[t, r] + moved.B[r, t] + 1.0) / (moved.d[t] + C)).sum()
        assert h == pytest.approx(bwd / fwd, rel=1e-9)

    def test_positive(self, random_blockmodel):
        graph, bm = random_blockmodel
        for v in range(0, graph.num_vertices, 13):
            ctx = vertex_move_context(bm, graph, v)
            s = (ctx.r + 1) % bm.num_blocks
            assert hastings_correction(bm, ctx, s) > 0.0


class TestMergeDelta:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_full_recompute(self, seed):
        graph, bm, rng = _random_state(seed)
        r = int(rng.integers(bm.num_blocks))
        s = int(rng.integers(bm.num_blocks))
        if r == s:
            assert merge_delta(bm, r, s) == 0.0
            return
        delta = merge_delta(bm, r, s)
        before = dcsbm_log_likelihood(bm.B, bm.d_out, bm.d_in)
        bm.merge_blocks(r, s)
        after = dcsbm_log_likelihood(bm.B, bm.d_out, bm.d_in)
        assert delta == pytest.approx(-(after - before), abs=1e-9)

    def test_merging_empty_block_free(self, tiny_graph, tiny_truth):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth, num_blocks=3)
        # block 2 is empty: merging it anywhere costs nothing
        assert merge_delta(bm, 2, 0) == pytest.approx(0.0)

    def test_merge_identical_blocks_symmetric(self):
        """Merging r into s or s into r gives the same delta."""
        rng = np.random.default_rng(9)
        edges = rng.integers(0, 20, (60, 2)).astype(np.int64)
        graph = Graph(20, edges)
        assignment = rng.integers(0, 4, 20).astype(np.int64)
        bm = Blockmodel.from_assignment(graph, assignment, 4)
        assert merge_delta(bm, 0, 2) == pytest.approx(merge_delta(bm, 2, 0), abs=1e-9)


class TestMergeDeltaBatch:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_bit_identical_to_scalar(self, seed):
        from repro.sbm.delta import merge_delta_batch

        graph, bm, rng = _random_state(seed)
        C = bm.num_blocks
        r = rng.integers(0, C, 40).astype(np.int64)
        s = rng.integers(0, C, 40).astype(np.int64)
        batch = merge_delta_batch(bm, r, s)
        for i in range(40):
            scalar = merge_delta(bm, int(r[i]), int(s[i]))
            # bitwise equality is the backend-equivalence contract
            assert np.float64(scalar).tobytes() == batch[i].tobytes(), (
                r[i], s[i], scalar, batch[i]
            )

    def test_self_merge_zero(self, tiny_graph, tiny_truth):
        from repro.sbm.delta import merge_delta_batch

        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        r = np.array([0, 1, 0], dtype=np.int64)
        out = merge_delta_batch(bm, r, r)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_duplicate_pairs_share_value(self, tiny_graph, tiny_truth):
        from repro.sbm.delta import merge_delta_batch

        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        r = np.array([0, 0, 0], dtype=np.int64)
        s = np.array([1, 1, 1], dtype=np.int64)
        out = merge_delta_batch(bm, r, s)
        assert out[0] == out[1] == out[2] == merge_delta(bm, 0, 1)

    def test_shape_mismatch_rejected(self, tiny_graph, tiny_truth):
        from repro.sbm.delta import merge_delta_batch

        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        with pytest.raises(ValueError):
            merge_delta_batch(
                bm, np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)
            )


class TestSeqSum:
    def test_seq_sum_is_bitwise_cumsum_tail(self):
        from repro.sbm.delta import _seq_sum

        rng = np.random.default_rng(12345)
        for size in (0, 1, 2, 7, 63, 1024):
            terms = rng.normal(scale=1e6, size=size) + rng.normal(size=size)
            expect = 0.0 if size == 0 else float(np.cumsum(terms)[-1])
            assert _seq_sum(terms) == expect  # bitwise, not approx
