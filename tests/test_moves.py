"""Unit tests for proposal distributions and MH acceptance."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Blockmodel, Graph
from repro.sbm.moves import (
    accept_probability,
    propose_block_merge,
    propose_vertex_move,
)


@pytest.fixture
def state(medium_graph):
    graph, _ = medium_graph
    rng = np.random.default_rng(2)
    assignment = rng.integers(0, 6, graph.num_vertices)
    return graph, Blockmodel.from_assignment(graph, assignment, 6)


class TestVertexProposal:
    def test_in_range(self, state):
        graph, bm = state
        rng = np.random.default_rng(0)
        for v in range(0, graph.num_vertices, 7):
            s = propose_vertex_move(bm, graph, v, rng.random(5))
            assert 0 <= s < bm.num_blocks

    def test_isolated_vertex_uniform(self):
        graph = Graph(4, np.array([[0, 1]], dtype=np.int64))
        bm = Blockmodel.from_assignment(graph, np.array([0, 1, 2, 2]), 3)
        # vertex 3 has no edges: proposal must come from uniforms[3]
        assert propose_vertex_move(bm, graph, 3, np.array([0.9, 0.9, 0.9, 0.0])) == 0
        assert propose_vertex_move(bm, graph, 3, np.array([0.9, 0.9, 0.9, 0.99])) == 2

    def test_mixture_takes_uniform_branch(self, state):
        graph, bm = state
        # uniforms[1] = 0 always falls below C/(d_u + C)
        uniforms = np.array([0.5, 0.0, 0.5, 0.42])
        s = propose_vertex_move(bm, graph, 0, uniforms)
        assert s == int(0.42 * bm.num_blocks)

    def test_multinomial_branch_biased_to_connected_blocks(self, state):
        graph, bm = state
        # With uniforms[1] = 1.0 the exploit branch always fires; the drawn
        # block must then have nonzero row/col mass around the neighbour's
        # block (a weak but deterministic sanity check).
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.random(5)
            u[1] = 0.999999
            v = int(rng.integers(graph.num_vertices))
            if graph.degree[v] == 0:
                continue
            s = propose_vertex_move(bm, graph, v, u)
            assert 0 <= s < bm.num_blocks

    def test_deterministic_given_uniforms(self, state):
        graph, bm = state
        u = np.array([0.3, 0.9, 0.7, 0.1, 0.5])
        assert propose_vertex_move(bm, graph, 5, u) == propose_vertex_move(
            bm, graph, 5, u
        )


class TestMergeProposal:
    def test_never_self(self, state):
        _, bm = state
        rng = np.random.default_rng(3)
        for r in range(bm.num_blocks):
            for _ in range(20):
                s = propose_block_merge(bm, r, rng.random(4))
                assert s != r
                assert 0 <= s < bm.num_blocks

    def test_isolated_block_uniform_other(self, tiny_graph, tiny_truth):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth, num_blocks=3)
        # block 2 is empty: must fall back to a uniform other block
        s = propose_block_merge(bm, 2, np.array([0.1, 0.1, 0.1, 0.0]))
        assert s in (0, 1)

    def test_two_blocks_always_other(self, tiny_graph, tiny_truth):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert propose_block_merge(bm, 0, rng.random(4)) == 1

    def test_single_block_rejected(self, tiny_graph):
        bm = Blockmodel.from_assignment(
            tiny_graph, np.zeros(tiny_graph.num_vertices, dtype=np.int64), 1
        )
        with pytest.raises(ValueError):
            propose_block_merge(bm, 0, np.zeros(4))


class TestAcceptProbability:
    def test_improvement_always_accepted(self):
        assert accept_probability(-5.0, 1.0, 3.0) == 1.0

    def test_neutral_move_unit(self):
        assert accept_probability(0.0, 1.0, 3.0) == 1.0

    def test_worse_move_discounted(self):
        p = accept_probability(1.0, 1.0, 3.0)
        assert p == pytest.approx(np.exp(-3.0))

    def test_beta_sharpens(self):
        assert accept_probability(1.0, 1.0, 5.0) < accept_probability(1.0, 1.0, 1.0)

    def test_hastings_rescues_worse_move(self):
        assert accept_probability(1.0, np.exp(3.0), 3.0) == 1.0

    def test_zero_hastings(self):
        assert accept_probability(-1.0, 0.0, 3.0) == 0.0

    def test_extreme_delta_underflow_guard(self):
        assert accept_probability(1e6, 1.0, 3.0) == 0.0

    def test_monotone_in_delta(self):
        deltas = [0.0, 0.5, 1.0, 2.0, 4.0]
        probs = [accept_probability(d, 1.0, 3.0) for d in deltas]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


class TestBatchMergeProposals:
    def test_matches_scalar_loop(self, medium_graph):
        from repro.sbm.moves import propose_block_merges_batch

        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        C = bm.num_blocks
        rng = np.random.default_rng(6)
        uniforms = rng.random((C, 4, 4))
        batch = propose_block_merges_batch(bm, uniforms)
        for r in range(C):
            for j in range(uniforms.shape[1]):
                assert batch[r, j] == propose_block_merge(bm, r, uniforms[r, j])

    def test_isolated_blocks_use_fallback(self, tiny_graph):
        from repro.sbm.moves import propose_block_merges_batch

        # blocks with d_r == 0 (no incident edges) draw uniform-other
        assignment = np.zeros(tiny_graph.num_vertices, dtype=np.int64)
        assignment[0] = 1
        bm = Blockmodel.from_assignment(tiny_graph, assignment, 4)  # 2 empty
        rng = np.random.default_rng(8)
        uniforms = rng.random((4, 3, 4))
        batch = propose_block_merges_batch(bm, uniforms)
        for r in range(4):
            for j in range(3):
                expected = propose_block_merge(bm, r, uniforms[r, j])
                assert batch[r, j] == expected
                assert batch[r, j] != r

    def test_single_block_rejected(self, tiny_graph):
        from repro.sbm.moves import propose_block_merges_batch

        bm = Blockmodel.from_assignment(
            tiny_graph, np.zeros(tiny_graph.num_vertices, dtype=np.int64), 1
        )
        with pytest.raises(ValueError):
            propose_block_merges_batch(bm, np.zeros((1, 1, 4)))

    def test_bad_shape_rejected(self, medium_graph):
        from repro.sbm.moves import propose_block_merges_batch

        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        with pytest.raises(ValueError):
            propose_block_merges_batch(bm, np.zeros((3, 4)))


class TestRowCDFDraw:
    def test_cdf_index_never_lands_on_zero_plateau(self):
        """The draw-side bit-identity theorem, checked exhaustively.

        Integer draws ``q = floor(u * total)`` range over ``[0, total)``;
        the ``side="right"`` lookup of :meth:`RowCDF.draw` and
        :meth:`RowCDF.draw_many` must map every q to a block with a
        nonzero symmetrized count, zero plateaus notwithstanding, in the
        dense-identity view and in the compressed (``cols``) view alike.
        """
        from repro.sbm.block_storage import RowCDF

        counts = np.asarray([0, 3, 0, 0, 2, 0, 1, 0], dtype=np.int64)
        cols = np.flatnonzero(counts).astype(np.int64)
        total = int(counts.sum())
        uniforms = (np.arange(total) + 0.5) / total  # floor(u * total) == q
        for view in (RowCDF(None, np.cumsum(counts)),
                     RowCDF(cols, np.cumsum(counts[cols]))):
            blocks = [view.draw(float(u), fallback=-1) for u in uniforms]
            for q, block in enumerate(blocks):
                assert counts[block] > 0, f"draw {q} landed on zero plateau {block}"
            np.testing.assert_array_equal(view.draw_many(uniforms), blocks)
            # Plateau edges explicitly: q = 2 is the last unit of block 1,
            # q = 3 the first unit of block 4, q = 5 the one unit of block 6.
            assert (blocks[2], blocks[3], blocks[5]) == (1, 4, 6)
