"""Unit tests for the MDL objective (Eqs. 1-2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Blockmodel
from repro.sbm.entropy import (
    dcsbm_log_likelihood,
    description_length,
    h_binary,
    normalized_description_length,
    null_description_length,
    xlogx,
)


class TestXlogx:
    def test_zero_convention(self):
        assert xlogx(0.0) == 0.0

    def test_scalar(self):
        assert xlogx(np.e) == pytest.approx(np.e)

    def test_array(self):
        out = xlogx(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2 * np.log(2)])

    def test_never_nan(self):
        assert not np.isnan(xlogx(np.array([0, 0, 5]))).any()


class TestHBinary:
    def test_zero(self):
        assert h_binary(0.0) == 0.0

    def test_known_value(self):
        # h(1) = 2 log 2 - 0
        assert h_binary(1.0) == pytest.approx(2 * np.log(2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_binary(-0.1)

    def test_monotone_increasing(self):
        xs = np.linspace(0.01, 10, 50)
        values = [h_binary(float(x)) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestLogLikelihood:
    def test_direct_formula_agreement(self):
        """The g-expansion must equal Eq. 1 computed directly."""
        rng = np.random.default_rng(3)
        B = rng.integers(0, 6, (4, 4)).astype(np.int64)
        d_out = B.sum(axis=1)
        d_in = B.sum(axis=0)
        expected = 0.0
        for i in range(4):
            for j in range(4):
                if B[i, j] > 0 and d_out[i] > 0 and d_in[j] > 0:
                    expected += B[i, j] * np.log(B[i, j] / (d_out[i] * d_in[j]))
        assert dcsbm_log_likelihood(B, d_out, d_in) == pytest.approx(expected)

    def test_single_block(self):
        B = np.array([[10]])
        assert dcsbm_log_likelihood(B, B.sum(1), B.sum(0)) == pytest.approx(
            -10 * np.log(10)
        )

    def test_perfectly_assortative_is_high(self):
        B_struct = np.diag([5, 5]).astype(np.int64)
        ll_struct = dcsbm_log_likelihood(B_struct, B_struct.sum(1), B_struct.sum(0))
        B_mixed = np.array([[3, 2], [2, 3]])
        ll_mixed = dcsbm_log_likelihood(B_mixed, B_mixed.sum(1), B_mixed.sum(0))
        assert ll_struct > ll_mixed


class TestDescriptionLength:
    def test_null_model_formula(self):
        E, V = 100, 30
        B = np.array([[E]])
        mdl = description_length(E, V, B, B.sum(1), B.sum(0), num_blocks=1)
        assert mdl == pytest.approx(null_description_length(E, V))

    def test_zero_edges(self):
        assert description_length(0, 5, np.zeros((2, 2)), np.zeros(2), np.zeros(2)) == 0.0
        assert null_description_length(0, 5) == 0.0

    def test_more_blocks_cost_more_without_structure(self):
        """Splitting a uniform blockmodel should not reduce the MDL."""
        E, V = 200, 40
        one = np.array([[E]])
        mdl1 = description_length(E, V, one, one.sum(1), one.sum(0))
        four = np.full((2, 2), E // 4)
        mdl2 = description_length(E, V, four, four.sum(1), four.sum(0))
        assert mdl2 > mdl1

    def test_blockmodel_method_agrees(self, tiny_graph, tiny_truth):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        expected = description_length(
            tiny_graph.num_edges,
            tiny_graph.num_vertices,
            bm.B,
            bm.d_out,
            bm.d_in,
            num_blocks=2,
        )
        assert bm.mdl(tiny_graph) == pytest.approx(expected)


class TestNormalizedMDL:
    def test_null_is_one(self):
        E, V = 150, 50
        assert normalized_description_length(
            null_description_length(E, V), E, V
        ) == pytest.approx(1.0)

    def test_structure_below_one(self, tiny_graph, tiny_truth):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        value = normalized_description_length(
            bm.mdl(tiny_graph), tiny_graph.num_edges, tiny_graph.num_vertices
        )
        assert 0.0 < value < 2.0

    def test_zero_edges_nan(self):
        assert np.isnan(normalized_description_length(0.0, 0, 5))
