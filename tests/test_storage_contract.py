"""The storage contract: seven primitives, everything else derived once.

``BlockState`` declares seven abstract primitives and derives every
other read and write from them. These tests pin that shape (so a new
abstract method, or a built-in engine re-implementing a derived one,
is a deliberate edit here), the constructor every derived build goes
through, and the dense engine's write through its flat view.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.errors import BlockmodelError
from repro.sbm.block_storage import (
    BlockState,
    DenseBlockState,
    HybridBlockState,
    RowCDF,
    SparseBlockState,
)

ENGINES = (DenseBlockState, SparseBlockState, HybridBlockState)

PRIMITIVES = {
    "gather", "nonzero", "sym_row_cdf", "add_cells", "copy",
    "from_triplets", "memory_bytes",
}

DERIVED = {
    "get", "row_gather", "col_gather", "dense_row", "dense_col", "diagonal",
    "row_sums", "col_sums", "to_dense", "likelihood_matrix", "nnz", "total",
    "density", "equals_dense", "apply_move", "scatter_edges", "merge_into",
    "compact", "from_edges", "from_dense",
}

#: The derived methods each built-in engine re-implements on a faster path.
OVERRIDES = {
    DenseBlockState: {
        "likelihood_matrix", "row_sums", "col_sums", "to_dense", "compact",
        "from_dense", "nnz", "total",
    },
    SparseBlockState: set(),
    HybridBlockState: {"get", "row_gather", "col_gather", "dense_row", "dense_col"},
}


def _public_members(cls) -> set[str]:
    """Public methods, classmethods and properties ``cls`` itself defines."""
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, (classmethod, property)))
    }


def _ref_matrix(C: int = 7, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    B = rng.integers(0, 6, size=(C, C)).astype(np.int64)
    B[rng.random((C, C)) < 0.4] = 0
    return B


def _assert_lines_and_triplets_match(state, ref: np.ndarray) -> None:
    """Every line's ``sym_row_cdf`` draws and ``nonzero()`` agree with ``ref``."""
    grid = np.linspace(0.0, 0.9999, 37)
    for u in range(ref.shape[0]):
        dense_cdf = RowCDF(None, np.cumsum(ref[u, :] + ref[:, u]))
        cdf = state.sym_row_cdf(u)
        assert cdf.total == dense_cdf.total
        if cdf.total > 0:
            assert_array_equal(cdf.draw_many(grid), dense_cdf.draw_many(grid))
    rows, cols = np.nonzero(ref)
    nz_rows, nz_cols, nz_vals = state.nonzero()
    assert_array_equal(nz_rows, rows)
    assert_array_equal(nz_cols, cols)
    assert_array_equal(nz_vals, ref[rows, cols])


class TestShape:
    def test_abstract_methods_are_the_seven_primitives(self):
        assert BlockState.__abstractmethods__ == PRIMITIVES

    def test_base_derives_exactly_the_listed_methods(self):
        assert _public_members(BlockState) - PRIMITIVES == DERIVED

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda c: c.name)
    def test_engine_overrides_only_its_faster_paths(self, engine):
        assert PRIMITIVES <= _public_members(engine)
        assert _public_members(engine) & DERIVED == OVERRIDES[engine]


class TestFromTriplets:
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda c: c.name)
    def test_duplicates_accumulate(self, engine):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 6, 60)
        cols = rng.integers(0, 6, 60)
        vals = rng.integers(1, 4, 60)
        ref = np.zeros((6, 6), dtype=np.int64)
        np.add.at(ref, (rows, cols), vals)
        state = engine.from_triplets(rows, cols, vals, 6)
        assert_array_equal(state.to_dense(), ref)
        assert state.nnz == np.count_nonzero(ref)

    @pytest.mark.parametrize("engine", [SparseBlockState, HybridBlockState],
                             ids=lambda c: c.name)
    def test_negative_aggregate_raises(self, engine):
        # (1, 0) aggregates to 3 - 5 = -2; (0, 1) is negative on its own.
        rows = np.asarray([0, 1, 1], dtype=np.int64)
        cols = np.asarray([1, 0, 0], dtype=np.int64)
        vals = np.asarray([-2, 3, -5], dtype=np.int64)
        with pytest.raises(BlockmodelError, match="negative aggregate"):
            engine.from_triplets(rows, cols, vals, 3)
        with pytest.raises(BlockmodelError, match="negative aggregate"):
            engine.from_triplets(rows[1:], cols[1:], vals[1:], 3)

    @pytest.mark.parametrize("engine", [SparseBlockState, HybridBlockState],
                             ids=lambda c: c.name)
    def test_zero_aggregate_is_not_stored(self, engine):
        rows = np.asarray([2, 2, 0], dtype=np.int64)
        cols = np.asarray([1, 1, 0], dtype=np.int64)
        vals = np.asarray([4, -4, 1], dtype=np.int64)
        state = engine.from_triplets(rows, cols, vals, 3)
        assert state.nnz == 1
        assert state.get(0, 0) == 1


class TestAddCells:
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda c: c.name)
    def test_matches_ufunc_at_reference(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 7, 40)
        cols = rng.integers(0, 7, 40)
        deltas = rng.integers(1, 3, 40)
        state.add_cells(rows, cols, deltas)
        np.add.at(ref, (rows, cols), deltas)
        assert_array_equal(state.to_dense(), ref)
        _assert_lines_and_triplets_match(state, ref)
        state.add_cells(rows, cols, -deltas)  # and back, zeros included
        assert_array_equal(state.to_dense(), _ref_matrix())
        _assert_lines_and_triplets_match(state, _ref_matrix())
        assert state.nnz == np.count_nonzero(_ref_matrix())

    @pytest.mark.parametrize("engine", [SparseBlockState, HybridBlockState],
                             ids=lambda c: c.name)
    def test_negative_result_raises(self, engine):
        state = engine.from_dense(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(BlockmodelError, match="negative count"):
            state.add_cells([1, 1], [2, 2], [1, -2])

    def test_hybrid_cached_lines_stay_exact_through_a_merge(self):
        ref = _ref_matrix()
        state = HybridBlockState(SparseBlockState.from_dense(ref))
        dense = DenseBlockState.from_dense(ref)
        for line in range(7):  # cache every row and column
            state.sym_row_cdf(line)
        state.merge_into(2, 5)
        dense.merge_into(2, 5)
        assert len(state._row_lru) == len(state._col_lru) == 7
        for line in range(7):
            assert_array_equal(state.dense_row(line), dense.dense_row(line))
            assert_array_equal(state.dense_col(line), dense.dense_col(line))
            assert_array_equal(state.sym_row_cdf(line).cdf,
                               dense.sym_row_cdf(line).cdf)


class TestDenseFlatView:
    def test_c_ordered_input_stays_aliased(self):
        ref = _ref_matrix()
        assert DenseBlockState(ref).B is ref

    def test_fortran_input_takes_every_write(self):
        ref = _ref_matrix()
        state = DenseBlockState(np.asfortranarray(ref))
        assert state.B.flags.c_contiguous
        expect = ref.copy()

        t_out = np.asarray([1, 4, 6], dtype=np.int64)
        c_out = np.asarray([2, 1, 3], dtype=np.int64)
        t_in = np.asarray([0, 3], dtype=np.int64)
        c_in = np.asarray([1, 2], dtype=np.int64)
        state.apply_move(2, 5, t_out, c_out, t_in, c_in, 1)
        expect[2, t_out] -= c_out
        expect[5, t_out] += c_out
        expect[t_in, 2] -= c_in
        expect[t_in, 5] += c_in
        expect[2, 2] -= 1
        expect[5, 5] += 1
        assert_array_equal(state.B, expect)

        old = (np.asarray([0, 0, 3]), np.asarray([1, 1, 6]))
        new = (np.asarray([6, 6, 3]), np.asarray([2, 2, 0]))
        state.scatter_edges(*old, *new)
        np.subtract.at(expect, old, 1)
        np.add.at(expect, new, 1)
        assert_array_equal(state.B, expect)

        state.merge_into(4, 1)
        expect[1, :] += expect[4, :]
        expect[:, 1] += expect[:, 4]
        expect[4, :] = 0
        expect[:, 4] = 0
        assert_array_equal(state.B, expect)
