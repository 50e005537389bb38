"""Pluggable blockmodel storage engines — the ``BlockState`` protocol.

The inference path never needs a dense ``(C, C)`` matrix per se; it needs
a small contract of reads and O(change) mutations:

* scalar cell reads and batched row/column/elementwise **gathers** (the
  delta-MDL and Hastings kernels in :mod:`repro.sbm.delta` and
  :mod:`repro.parallel.vectorized`),
* a **compressed symmetrized-row CDF view** for the multinomial proposal
  draws (:mod:`repro.sbm.moves`),
* a row-major **non-zero triplet view** for the batch merge kernels,
* an O(degree) **single-move update** (serial Metropolis),
* a batch **sweep delta-apply** (the A-SBP barrier,
  :mod:`repro.sbm.incremental`),
* **merge**, **compact** and **rebuild-from-edges** transitions (Alg. 1
  and the agglomerative outer loop),
* **densify** for MDL evaluation and serialization.

This module defines that contract (:class:`BlockState`), a registry
(:data:`BLOCK_STORAGES`, with :func:`register_block_storage` /
:func:`get_block_storage`) and the three built-in engines:

``dense``
    The original contiguous int64 matrix, retained as the oracle. Its
    :attr:`~DenseBlockState.B` attribute is the *live* array, so legacy
    code (and tests) that read or poke ``bm.B`` keep working unchanged.
``sparse``
    Numpy-native per-row sorted ``(cols, vals)`` arrays with a mirrored
    per-column index, so gathers stay vectorized. A lazy flattened
    CSR view (sorted ``r * C + c`` keys) serves frozen-state batch
    gathers and the merge kernels; it is invalidated by any mutation and
    never consulted on the serial per-move path, which uses only the
    per-row/per-column arrays.
``hybrid``
    A sweep-burst engine layered over a sparse backing store: an LRU of
    materialized dense rows/columns for high-traffic blocks. CDF/row
    reads hit the dense cache lines (dense-identity :class:`RowCDF`, so
    draws are byte-equal to the oracle), ``apply_move``/``scatter_edges``
    write through to the sparse backing at once and to every cached line
    they touch, and whole-matrix reads, ``merge_into`` and ``compact``
    are the sparse paths.

The ``auto`` policy (:func:`resolve_block_storage`) is not an engine:
it resolves to ``dense`` or ``hybrid`` from (C, density, memory budget)
each time a fit builds a state, so a fit that starts on ``hybrid`` at
C = V moves to ``dense`` once the merges have shrunk C. Config digests
record the decision at C = V.

Bit-identical equivalence
-------------------------
Every read the kernels perform returns the same int64 values from either
engine, and three theorems extend that to *byte-equal trajectories*
(asserted by ``tests/test_storage_equivalence.py`` and the sparse leg of
the golden-trajectory gate):

1. **Integer-CDF plateau**: for an integer CDF, ``searchsorted(cdf,
   floor(u * total), side="right")`` can never land on a zero-weight
   plateau, so the compressed non-zero CDF of :meth:`BlockState.
   sym_row_cdf` draws the same block as the dense row scan.
2. **+0.0 is an IEEE no-op**: delta-MDL terms for untouched cells are
   exactly ``+0.0`` and never ``-0.0``, so summing over sparse support
   only reproduces the dense sum bit-for-bit (the ``_seq_sum``
   discipline of :mod:`repro.sbm.delta`).
3. **Dense MDL materialization**: ``np.sum`` uses *pairwise* summation
   over the flattened dense matrix, whose rounding depends on the zero
   cells' positions. :meth:`BlockState.likelihood_matrix` therefore
   hands the entropy kernel a dense int64 matrix from either engine —
   the sparse engine materializes one per evaluation — keeping MDL
   traces byte-equal to the dense oracle.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import OrderedDict

import numpy as np

from repro.errors import BackendError, BlockmodelError
from repro.sbm import kernels as _K
from repro.types import IntArray
from repro.utils.registry import Registry

__all__ = [
    "RowCDF",
    "BlockState",
    "DenseBlockState",
    "SparseBlockState",
    "HybridBlockState",
    "BLOCK_STORAGES",
    "register_block_storage",
    "get_block_storage",
    "available_block_storages",
    "resolve_block_storage",
    "AUTO_STORAGE",
    "STORAGE_BUDGET_ENV",
]

_EMPTY = np.empty(0, dtype=np.int64)


class RowCDF:
    """A symmetrized-row prefix-sum ready for inverse-CDF draws.

    ``cols is None`` marks a dense identity view: the CDF covers every
    block and the searchsorted index *is* the block id. A compressed view
    lists only the non-zero weights' block ids in ``cols``; by the
    integer-CDF plateau theorem both resolve every draw to the same
    block.
    """

    __slots__ = ("cols", "cdf")

    def __init__(self, cols: IntArray | None, cdf: IntArray) -> None:
        self.cols = cols
        self.cdf = cdf

    @property
    def total(self) -> int:
        """Sum of all weights (the CDF's last entry)."""
        return int(self.cdf[-1]) if self.cdf.size else 0

    def draw(self, uniform: float, fallback: int) -> int:
        """Floor-and-clamp inverse-CDF draw; ``fallback`` on a zero row.

        The float draw ``uniform * total`` is floored (for an integer
        CDF, ``cdf[i] > x`` iff ``cdf[i] > floor(x)``, so the index is
        unchanged for u in [0, 1)) and clamped to ``total - 1`` (the
        u == 1.0 boundary).
        """
        total = self.total
        if total <= 0:
            return fallback
        q = min(int(uniform * total), total - 1)
        idx = int(_K.cdf_index(self.cdf, q))
        return idx if self.cols is None else int(self.cols[idx])

    def draw_many(self, uniforms: np.ndarray) -> IntArray:
        """Vectorized :meth:`draw` for a strictly positive total."""
        total = self.total
        draws = (uniforms * total).astype(np.int64)
        np.minimum(draws, total - 1, out=draws)
        idx = np.searchsorted(self.cdf, draws, side="right")
        if self.cols is None:
            return idx.astype(np.int64)
        return self.cols[idx]


class BlockState(ABC):
    """Storage contract for the inter-block edge-count matrix.

    All values are int64 edge counts; ``get(r, c)`` is the cell the
    dense oracle calls ``B[r, c]``. Mutators must keep every count
    non-negative (a negative count means the caller's delta accounting
    is wrong) and must leave subsequent reads exactly equal to the dense
    engine's after the same call sequence.
    """

    name: str = "abstract"
    num_blocks: int

    # -- reads ----------------------------------------------------------
    @abstractmethod
    def get(self, r: int, c: int) -> int:
        """Scalar cell read ``B[r, c]``."""

    @abstractmethod
    def row_gather(self, r: int, cols: IntArray) -> IntArray:
        """Batched row read ``B[r, cols]`` (fresh array)."""

    @abstractmethod
    def col_gather(self, c: int, rows: IntArray) -> IntArray:
        """Batched column read ``B[rows, c]`` (fresh array)."""

    @abstractmethod
    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        """Elementwise read ``B[rows[i], cols[i]]`` (fresh array)."""

    @abstractmethod
    def dense_row(self, r: int) -> IntArray:
        """Row ``r`` as a dense length-C vector (fresh array)."""

    @abstractmethod
    def dense_col(self, c: int) -> IntArray:
        """Column ``c`` as a dense length-C vector (fresh array)."""

    @abstractmethod
    def diagonal(self) -> IntArray:
        """The diagonal ``B[i, i]`` as a length-C vector (fresh array)."""

    @abstractmethod
    def sym_row_cdf(self, u: int) -> RowCDF:
        """Prefix-sum CDF of the symmetrized row ``B[u, :] + B[:, u]``."""

    @abstractmethod
    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        """Non-zero triplets ``(rows, cols, vals)`` in row-major order.

        The same ordering ``np.nonzero`` gives on the dense matrix —
        the batch merge kernels rely on it for their sequential
        accumulation discipline.
        """

    @abstractmethod
    def row_sums(self) -> IntArray:
        """Per-row totals (the out-degree vector)."""

    @abstractmethod
    def col_sums(self) -> IntArray:
        """Per-column totals (the in-degree vector)."""

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """A dense int64 copy of the matrix."""

    @abstractmethod
    def likelihood_matrix(self) -> np.ndarray:
        """Dense int64 matrix for MDL evaluation.

        The entropy kernel's ``np.sum`` pairwise summation over the
        flattened dense matrix is part of the bit-identity contract, so
        even sparse engines hand it a dense materialization (the dense
        engine returns its live array, no copy).
        """

    # -- mutations ------------------------------------------------------
    @abstractmethod
    def apply_move(
        self,
        r: int,
        s: int,
        t_out: IntArray,
        c_out: IntArray,
        t_in: IntArray,
        c_in: IntArray,
        loops: int,
    ) -> None:
        """Move one vertex's incident counts from block ``r`` to ``s``.

        Arguments mirror :meth:`repro.sbm.blockmodel.Blockmodel.
        apply_move` (degree vectors live in the blockmodel, not here).
        """

    @abstractmethod
    def scatter_edges(
        self,
        old_src: IntArray,
        old_dst: IntArray,
        new_src: IntArray,
        new_dst: IntArray,
    ) -> None:
        """Batch sweep delta-apply: ``-1`` at old pairs, ``+1`` at new."""

    @abstractmethod
    def merge_into(self, r: int, s: int) -> None:
        """Fold row/column ``r`` into ``s`` and zero block ``r``."""

    @abstractmethod
    def compact(self, keep: IntArray, mapping: IntArray) -> "BlockState":
        """A new state keeping blocks ``keep``, relabeled by ``mapping``."""

    @abstractmethod
    def copy(self) -> "BlockState":
        """An independent deep copy."""

    # -- construction ---------------------------------------------------
    @classmethod
    @abstractmethod
    def from_edges(
        cls, src_blocks: IntArray, dst_blocks: IntArray, num_blocks: int
    ) -> "BlockState":
        """Count block-pair edges from aligned endpoint-block arrays."""

    @classmethod
    @abstractmethod
    def from_dense(cls, dense: np.ndarray) -> "BlockState":
        """Build from a dense int64 matrix (serialization round-trip)."""

    # -- observability --------------------------------------------------
    @property
    @abstractmethod
    def nnz(self) -> int:
        """Number of non-zero cells."""

    @property
    def density(self) -> float:
        """``nnz / C^2`` (0 for an empty matrix)."""
        c = self.num_blocks
        return float(self.nnz) / float(c * c) if c else 0.0

    @property
    @abstractmethod
    def total(self) -> int:
        """Sum of all counts (the number of edges)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Approximate resident bytes of the storage structure."""

    def equals_dense(self, dense: np.ndarray) -> bool:
        """Exact comparison against a dense reference matrix."""
        return bool(np.array_equal(self.to_dense(), dense))


# ----------------------------------------------------------------------
# Dense engine (the oracle)
# ----------------------------------------------------------------------
class DenseBlockState(BlockState):
    """Contiguous ``(C, C)`` int64 matrix — the original storage.

    ``B`` is the live array (not a copy): legacy call sites and tests
    that mutate ``bm.B`` in place observe and affect this engine's real
    state, exactly as before the refactor.
    """

    name = "dense"

    __slots__ = ("B", "num_blocks")

    def __init__(self, B: np.ndarray) -> None:
        B = np.asarray(B, dtype=np.int64)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise BlockmodelError(f"B must be square, got shape {B.shape}")
        self.B = B
        self.num_blocks = int(B.shape[0])

    # -- reads ----------------------------------------------------------
    def get(self, r: int, c: int) -> int:
        return int(self.B[r, c])

    def row_gather(self, r: int, cols: IntArray) -> IntArray:
        return self.B[r, cols]

    def col_gather(self, c: int, rows: IntArray) -> IntArray:
        return self.B[rows, c]

    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        return self.B[rows, cols]

    def dense_row(self, r: int) -> IntArray:
        return self.B[r, :].copy()

    def dense_col(self, c: int) -> IntArray:
        return self.B[:, c].copy()

    def diagonal(self) -> IntArray:
        return np.diagonal(self.B).copy()

    def sym_row_cdf(self, u: int) -> RowCDF:
        return RowCDF(None, _K.sym_cdf_dense(self.B, u))

    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        rows, cols = np.nonzero(self.B)
        return rows.astype(np.int64), cols.astype(np.int64), self.B[rows, cols]

    def row_sums(self) -> IntArray:
        return self.B.sum(axis=1)

    def col_sums(self) -> IntArray:
        return self.B.sum(axis=0)

    def to_dense(self) -> np.ndarray:
        return self.B.copy()

    def likelihood_matrix(self) -> np.ndarray:
        return self.B

    # -- mutations ------------------------------------------------------
    def apply_move(self, r, s, t_out, c_out, t_in, c_in, loops) -> None:
        _K.apply_move_dense(self.B, r, s, t_out, c_out, t_in, c_in, loops)

    def scatter_edges(self, old_src, old_dst, new_src, new_dst) -> None:
        _K.scatter_dense(self.B, old_src, old_dst, new_src, new_dst)

    def merge_into(self, r: int, s: int) -> None:
        B = self.B
        B[s, :] += B[r, :]
        B[:, s] += B[:, r]
        # B[r, r] was added to B[s, r] then B[s, r] into B[s, s]; the two
        # full-row/col adds above handle all cross terms, then we zero r.
        B[r, :] = 0
        B[:, r] = 0

    def compact(self, keep: IntArray, mapping: IntArray) -> "DenseBlockState":
        return DenseBlockState(np.ascontiguousarray(self.B[np.ix_(keep, keep)]))

    def copy(self) -> "DenseBlockState":
        return DenseBlockState(self.B.copy())

    # -- construction ---------------------------------------------------
    @classmethod
    def from_edges(cls, src_blocks, dst_blocks, num_blocks) -> "DenseBlockState":
        B = np.zeros((num_blocks, num_blocks), dtype=np.int64)
        if len(src_blocks):
            np.add.at(B, (src_blocks, dst_blocks), 1)
        return cls(B)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DenseBlockState":
        return cls(np.asarray(dense, dtype=np.int64).copy())

    # -- observability --------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.B))

    @property
    def total(self) -> int:
        return int(self.B.sum())

    def memory_bytes(self) -> int:
        return int(self.B.nbytes)

    def equals_dense(self, dense: np.ndarray) -> bool:
        return bool(np.array_equal(self.B, dense))


# ----------------------------------------------------------------------
# Sparse engine
# ----------------------------------------------------------------------
class SparseBlockState(BlockState):
    """Per-row sorted ``(cols, vals)`` arrays with a mirrored column index.

    Row ``r``'s non-zeros live in ``_row_cols[r]`` (sorted, unique) and
    ``_row_vals[r]`` (strictly positive); ``_col_rows``/``_col_vals``
    mirror by column for O(nnz(col)) column gathers. A lazily built flat
    CSR view (keys ``r * C + c`` in ascending order) serves whole-matrix
    reads (:meth:`gather`, :meth:`nonzero`, sums); any mutation drops it.
    The serial per-move path touches only the per-row/per-column arrays,
    so interleaved propose/apply sequences never pay a flat rebuild.
    """

    name = "sparse"

    __slots__ = ("num_blocks", "_row_cols", "_row_vals", "_col_rows",
                 "_col_vals", "_flat")

    def __init__(self, num_blocks: int) -> None:
        self.num_blocks = int(num_blocks)
        self._row_cols: list[IntArray] = [_EMPTY] * self.num_blocks
        self._row_vals: list[IntArray] = [_EMPTY] * self.num_blocks
        self._col_rows: list[IntArray] = [_EMPTY] * self.num_blocks
        self._col_vals: list[IntArray] = [_EMPTY] * self.num_blocks
        self._flat: tuple[IntArray, IntArray, IntArray, IntArray] | None = None

    # -- flat CSR cache -------------------------------------------------
    def _ensure_flat(self) -> tuple[IntArray, IntArray, IntArray, IntArray]:
        if self._flat is None:
            C = self.num_blocks
            lengths = np.fromiter(
                (a.shape[0] for a in self._row_cols), dtype=np.int64, count=C
            )
            if int(lengths.sum()) == 0:
                flat = (_EMPTY, _EMPTY, _EMPTY, _EMPTY)
            else:
                rows = np.repeat(np.arange(C, dtype=np.int64), lengths)
                cols = np.concatenate(self._row_cols)
                vals = np.concatenate(self._row_vals)
                flat = (rows * C + cols, rows, cols, vals)
            self._flat = flat
        return self._flat

    # -- reads ----------------------------------------------------------
    def get(self, r: int, c: int) -> int:
        cols = self._row_cols[r]
        pos = int(np.searchsorted(cols, c))
        if pos < cols.shape[0] and cols[pos] == c:
            return int(self._row_vals[r][pos])
        return 0

    @staticmethod
    def _axis_gather(keys: IntArray, vals: IntArray, wanted: IntArray) -> IntArray:
        wanted = np.asarray(wanted, dtype=np.int64)
        out = np.zeros(wanted.shape, dtype=np.int64)
        if keys.shape[0] and wanted.size:
            pos = np.minimum(np.searchsorted(keys, wanted), keys.shape[0] - 1)
            hit = keys[pos] == wanted
            out[hit] = vals[pos[hit]]
        return out

    def row_gather(self, r: int, cols: IntArray) -> IntArray:
        return self._axis_gather(self._row_cols[r], self._row_vals[r], cols)

    def col_gather(self, c: int, rows: IntArray) -> IntArray:
        return self._axis_gather(self._col_rows[c], self._col_vals[c], rows)

    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        keys, _, _, vals = self._ensure_flat()
        return self._axis_gather(keys, vals, rows * self.num_blocks + cols)

    def dense_row(self, r: int) -> IntArray:
        out = np.zeros(self.num_blocks, dtype=np.int64)
        out[self._row_cols[r]] = self._row_vals[r]
        return out

    def dense_col(self, c: int) -> IntArray:
        out = np.zeros(self.num_blocks, dtype=np.int64)
        out[self._col_rows[c]] = self._col_vals[c]
        return out

    def diagonal(self) -> IntArray:
        idx = np.arange(self.num_blocks, dtype=np.int64)
        return self.gather(idx, idx)

    def sym_row_cdf(self, u: int) -> RowCDF:
        rc, rv = self._row_cols[u], self._row_vals[u]
        cc, cv = self._col_rows[u], self._col_vals[u]
        if cc.shape[0] == 0:
            cols, weights = rc, rv
        elif rc.shape[0] == 0:
            cols, weights = cc, cv
        else:
            cols = np.union1d(rc, cc)
            weights = np.zeros(cols.shape[0], dtype=np.int64)
            weights[np.searchsorted(cols, rc)] += rv
            weights[np.searchsorted(cols, cc)] += cv
        return RowCDF(cols, np.cumsum(weights))

    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        _, rows, cols, vals = self._ensure_flat()
        return rows, cols, vals

    def row_sums(self) -> IntArray:
        _, rows, _, vals = self._ensure_flat()
        out = np.zeros(self.num_blocks, dtype=np.int64)
        np.add.at(out, rows, vals)
        return out

    def col_sums(self) -> IntArray:
        _, _, cols, vals = self._ensure_flat()
        out = np.zeros(self.num_blocks, dtype=np.int64)
        np.add.at(out, cols, vals)
        return out

    def to_dense(self) -> np.ndarray:
        _, rows, cols, vals = self._ensure_flat()
        out = np.zeros((self.num_blocks, self.num_blocks), dtype=np.int64)
        out[rows, cols] = vals
        return out

    def likelihood_matrix(self) -> np.ndarray:
        return self.to_dense()

    # -- mutations ------------------------------------------------------
    def _apply_cell_deltas(self, keys: IntArray, deltas: IntArray) -> None:
        """Aggregate ``(key, delta)`` pairs and merge them into both axes.

        ``keys`` are flat ``r * C + c`` indices (duplicates allowed);
        zero aggregate deltas drop out, so the per-row update loops run
        over genuinely changed rows/columns only.
        """
        ukeys, inv = np.unique(keys, return_inverse=True)
        agg = np.zeros(ukeys.shape[0], dtype=np.int64)
        np.add.at(agg, inv, deltas)
        live = agg != 0
        if not live.any():
            return
        ukeys = ukeys[live]
        agg = agg[live]
        C = self.num_blocks
        rows = ukeys // C
        cols = ukeys % C
        self._flat = None
        # Row axis: ukeys is (row, col)-sorted, so contiguous row groups.
        bounds = np.nonzero(np.diff(rows))[0] + 1
        starts = np.concatenate([[0], bounds, [rows.shape[0]]])
        for gi in range(starts.shape[0] - 1):
            lo, hi = int(starts[gi]), int(starts[gi + 1])
            self._merge_axis(
                self._row_cols, self._row_vals, int(rows[lo]),
                cols[lo:hi], agg[lo:hi],
            )
        # Column axis mirror: re-sort by (col, row).
        order = np.argsort(cols * C + rows, kind="stable")
        rows_t = rows[order]
        cols_t = cols[order]
        agg_t = agg[order]
        bounds = np.nonzero(np.diff(cols_t))[0] + 1
        starts = np.concatenate([[0], bounds, [cols_t.shape[0]]])
        for gi in range(starts.shape[0] - 1):
            lo, hi = int(starts[gi]), int(starts[gi + 1])
            self._merge_axis(
                self._col_rows, self._col_vals, int(cols_t[lo]),
                rows_t[lo:hi], agg_t[lo:hi],
            )

    def _merge_axis(
        self,
        keys_store: list[IntArray],
        vals_store: list[IntArray],
        index: int,
        keys: IntArray,
        deltas: IntArray,
    ) -> None:
        """Merge sorted unique ``(keys, deltas)`` into one axis line."""
        cols = keys_store[index]
        vals = vals_store[index]
        if cols.shape[0] == 0:
            if (deltas < 0).any():
                raise BlockmodelError(
                    f"negative count in {self.name} storage line {index}"
                )
            keys_store[index] = keys.copy()
            vals_store[index] = deltas.copy()
            return
        pos = np.searchsorted(cols, keys)
        hit = (pos < cols.shape[0]) & (cols[np.minimum(pos, cols.shape[0] - 1)] == keys)
        new_vals = vals.copy()
        new_vals[pos[hit]] += deltas[hit]
        miss = ~hit
        if miss.any():
            new_cols = np.insert(cols, pos[miss], keys[miss])
            new_vals = np.insert(new_vals, pos[miss], deltas[miss])
        else:
            new_cols = cols
        if (new_vals < 0).any():
            raise BlockmodelError(
                f"negative count in {self.name} storage line {index}"
            )
        drop = new_vals == 0
        if drop.any():
            keep = ~drop
            new_cols = new_cols[keep]
            new_vals = new_vals[keep]
        keys_store[index] = new_cols
        vals_store[index] = new_vals

    def apply_move(self, r, s, t_out, c_out, t_in, c_in, loops) -> None:
        C = self.num_blocks
        parts_k = [r * C + t_out, s * C + t_out, t_in * C + r, t_in * C + s]
        parts_d = [-c_out, c_out, -c_in, c_in]
        if loops:
            diag = np.asarray([r * C + r, s * C + s], dtype=np.int64)
            parts_k.append(diag)
            parts_d.append(np.asarray([-loops, loops], dtype=np.int64))
        keys = np.concatenate(parts_k)
        if keys.size == 0:
            return
        self._apply_cell_deltas(keys, np.concatenate(parts_d))

    def scatter_edges(self, old_src, old_dst, new_src, new_dst) -> None:
        C = self.num_blocks
        keys = np.concatenate([old_src * C + old_dst, new_src * C + new_dst])
        if keys.size == 0:
            return
        deltas = np.concatenate([
            np.full(len(old_src), -1, dtype=np.int64),
            np.full(len(new_src), 1, dtype=np.int64),
        ])
        self._apply_cell_deltas(keys, deltas)

    def merge_into(self, r: int, s: int) -> None:
        C = self.num_blocks
        rc, rv = self._row_cols[r], self._row_vals[r]
        cc, cv = self._col_rows[r], self._col_vals[r]
        off_diag = cc != r  # the (r, r) cell is already in the row view
        cc, cv = cc[off_diag], cv[off_diag]
        if rc.shape[0] == 0 and cc.shape[0] == 0:
            return
        # Row r cells (r, t) move to (s, t) — the diagonal to (s, s);
        # column r cells (t, r) move to (t, s).
        keys = np.concatenate([
            r * C + rc,
            s * C + np.where(rc == r, s, rc),
            cc * C + r,
            cc * C + s,
        ])
        deltas = np.concatenate([-rv, rv, -cv, cv])
        self._apply_cell_deltas(keys, deltas)

    def compact(self, keep: IntArray, mapping: IntArray) -> "SparseBlockState":
        _, rows, cols, vals = self._ensure_flat()
        new_rows = mapping[rows]
        new_cols = mapping[cols]
        live = (new_rows >= 0) & (new_cols >= 0)
        return self._from_triplets(
            new_rows[live], new_cols[live], vals[live], int(keep.shape[0])
        )

    def copy(self) -> "SparseBlockState":
        out = SparseBlockState(self.num_blocks)
        out._row_cols = [a.copy() for a in self._row_cols]
        out._row_vals = [a.copy() for a in self._row_vals]
        out._col_rows = [a.copy() for a in self._col_rows]
        out._col_vals = [a.copy() for a in self._col_vals]
        return out

    # -- construction ---------------------------------------------------
    @classmethod
    def _from_triplets(
        cls, rows: IntArray, cols: IntArray, vals: IntArray, num_blocks: int
    ) -> "SparseBlockState":
        """Build from triplets with possible duplicate ``(row, col)`` keys."""
        state = cls(num_blocks)
        if len(rows) == 0:
            return state
        keys = np.asarray(rows, dtype=np.int64) * num_blocks + np.asarray(
            cols, dtype=np.int64
        )
        ukeys, inv = np.unique(keys, return_inverse=True)
        agg = np.zeros(ukeys.shape[0], dtype=np.int64)
        np.add.at(agg, inv, vals)
        live = agg > 0
        ukeys = ukeys[live]
        agg = agg[live]
        if (np.asarray(vals) < 0).any() and (agg < 0).any():
            raise BlockmodelError("negative aggregate count in triplets")
        urows = ukeys // num_blocks
        ucols = ukeys % num_blocks
        state._fill_axis(state._row_cols, state._row_vals, urows, ucols, agg)
        order = np.argsort(ucols * num_blocks + urows, kind="stable")
        state._fill_axis(
            state._col_rows, state._col_vals,
            ucols[order], urows[order], agg[order],
        )
        return state

    @staticmethod
    def _fill_axis(
        keys_store: list[IntArray],
        vals_store: list[IntArray],
        lines: IntArray,
        keys: IntArray,
        vals: IntArray,
    ) -> None:
        """Split line-sorted triplets into per-line arrays (views)."""
        if lines.shape[0] == 0:
            return
        bounds = np.nonzero(np.diff(lines))[0] + 1
        starts = np.concatenate([[0], bounds, [lines.shape[0]]])
        for gi in range(starts.shape[0] - 1):
            lo, hi = int(starts[gi]), int(starts[gi + 1])
            line = int(lines[lo])
            keys_store[line] = keys[lo:hi]
            vals_store[line] = vals[lo:hi]

    @classmethod
    def from_edges(cls, src_blocks, dst_blocks, num_blocks) -> "SparseBlockState":
        src_blocks = np.asarray(src_blocks, dtype=np.int64)
        dst_blocks = np.asarray(dst_blocks, dtype=np.int64)
        ones = np.ones(src_blocks.shape[0], dtype=np.int64)
        return cls._from_triplets(src_blocks, dst_blocks, ones, num_blocks)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseBlockState":
        dense = np.asarray(dense, dtype=np.int64)
        if (dense < 0).any():
            raise BlockmodelError("dense matrix has negative counts")
        rows, cols = np.nonzero(dense)
        return cls._from_triplets(
            rows.astype(np.int64), cols.astype(np.int64),
            dense[rows, cols], int(dense.shape[0]),
        )

    # -- observability --------------------------------------------------
    @property
    def nnz(self) -> int:
        keys, _, _, _ = self._ensure_flat()
        return int(keys.shape[0])

    @property
    def total(self) -> int:
        _, _, _, vals = self._ensure_flat()
        return int(vals.sum())

    def memory_bytes(self) -> int:
        """Resident bytes: line buffers, capacity slack, and the flat cache.

        Per-line arrays are frequently *views* into a larger build-time
        buffer (:meth:`_fill_axis` slices one concatenated array per
        axis), so summing view ``nbytes`` undercounts what the process
        actually retains. This walks each array to its base buffer and
        counts every distinct base exactly once — which also charges the
        per-row capacity slack (base cells no live view exposes). The
        lazy flat-CSR cache is included the same way whenever it is
        materialized, and the per-array constant (~112 bytes of ndarray
        header) dominates for very sparse large-C states, so it is
        included rather than hidden — the crossover benchmark compares
        *honest* footprints.
        """
        per_array_overhead = 112
        bases: dict[int, int] = {}
        count = 0
        stores: list = [self._row_cols, self._row_vals,
                        self._col_rows, self._col_vals]
        if self._flat is not None:
            stores.append(self._flat)
        for store in stores:
            for arr in store:
                if not arr.shape[0]:
                    continue
                count += 1
                base = arr
                while base.base is not None:
                    base = base.base
                bases[id(base)] = int(base.nbytes)
        list_slots = 4 * self.num_blocks * 8
        return sum(bases.values()) + count * per_array_overhead + list_slots


# ----------------------------------------------------------------------
# Hybrid engine: LRU dense lines over a write-through sparse backing
# ----------------------------------------------------------------------
class HybridBlockState(BlockState):
    """Sweep-burst engine: dense LRU line cache over a sparse backing.

    The sparse engine owns the authoritative compressed matrix. This
    engine keeps up to :attr:`cache_lines` materialized dense rows and as
    many columns in front of it, stored as rows of one 2-D buffer per
    axis with an O(1) line → slot lookup array. ``sym_row_cdf`` on a
    cached block is two O(C) adds and a prefix sum, i.e. the dense
    oracle's exact arithmetic, so the returned :class:`RowCDF` is the
    dense-identity form and draws are byte-equal by construction.

    Writes go through at once: ``apply_move``/``scatter_edges`` merge
    the batch into the sparse backing (whose aggregation path audits
    non-negativity, so a negative count raises at the write, before any
    cached line changes), then update every cached cell of the batch
    with one ``np.add.at`` per axis on the 2-D buffer (the slot array
    turns "which of these lines are cached" into one fancy index — no
    per-line Python loop). Whole-matrix reads, merges, compaction and
    copies go straight to the backing. A fit reads the whole state after
    every write (the next batch-kernel call's ``gather`` or the sweep's
    MDL), so deferring writes past it would save nothing. With the
    default budget (``max(256, C // 16)`` lines per axis, capped at C)
    the buffers top out at ``2 · cache_lines · C · 8`` bytes — 12.5% of
    the dense matrix at C ≥ 4096.

    All writes are int64 edge-count deltas, so write-through order
    cannot affect the resulting cells; bit-identity with the dense oracle
    needs no float reasoning on this path.
    """

    name = "hybrid"

    __slots__ = ("num_blocks", "_backing", "cache_lines",
                 "_row_lru", "_col_lru", "_row_slots", "_col_slots",
                 "_row_buf", "_col_buf")

    def __init__(
        self, backing: SparseBlockState, cache_lines: int | None = None
    ) -> None:
        if not isinstance(backing, SparseBlockState):
            raise BlockmodelError(
                "hybrid storage wraps a SparseBlockState backing, got "
                f"{type(backing).__name__}"
            )
        self._backing = backing
        self.num_blocks = backing.num_blocks
        if cache_lines is None:
            cache_lines = max(256, self.num_blocks // 16)
        # A cache larger than the matrix is just the matrix.
        self.cache_lines = min(int(cache_lines), self.num_blocks)
        # line → LRU slot; the OrderedDict carries recency, the arrays
        # give the write path its vectorized line → slot lookup.
        self._row_lru: OrderedDict[int, int] = OrderedDict()
        self._col_lru: OrderedDict[int, int] = OrderedDict()
        self._row_slots = np.full(self.num_blocks, -1, dtype=np.int64)
        self._col_slots = np.full(self.num_blocks, -1, dtype=np.int64)
        # (cache_lines, C) buffers, allocated on first materialization.
        self._row_buf: np.ndarray | None = None
        self._col_buf: np.ndarray | None = None

    # -- write-through --------------------------------------------------
    @staticmethod
    def _write_through(
        slots: IntArray,
        buf: np.ndarray | None,
        lines: IntArray,
        keys: IntArray,
        deltas: IntArray,
    ) -> None:
        """Apply a batch to every cached line it touches, in one add.at."""
        if buf is None:
            return
        s = slots[lines]
        hit = s >= 0
        if hit.any():
            np.add.at(buf, (s[hit], keys[hit]), deltas[hit])

    def _record(self, rows: IntArray, cols: IntArray, deltas: IntArray) -> None:
        """Apply a batch of cell deltas (duplicates allowed).

        The backing goes first, so a delta that drives a cell negative
        raises before any cached line has changed.
        """
        if rows.shape[0] == 0:
            return
        self._backing._apply_cell_deltas(rows * self.num_blocks + cols, deltas)
        self._write_through(self._row_slots, self._row_buf, rows, cols, deltas)
        self._write_through(self._col_slots, self._col_buf, cols, rows, deltas)

    # -- line materialization -------------------------------------------
    def _materialize_axis(
        self, axis: int, line: int, fetch
    ) -> IntArray:
        """Return the cached dense line, materializing (and possibly
        evicting) on a miss. ``axis`` 0 = rows, 1 = cols."""
        lru = self._row_lru if axis == 0 else self._col_lru
        slot = lru.get(line)
        if slot is not None:
            lru.move_to_end(line)
            return (self._row_buf if axis == 0 else self._col_buf)[slot]
        slots = self._row_slots if axis == 0 else self._col_slots
        buf = self._row_buf if axis == 0 else self._col_buf
        if buf is None:
            buf = np.zeros((self.cache_lines, self.num_blocks), dtype=np.int64)
            if axis == 0:
                self._row_buf = buf
            else:
                self._col_buf = buf
        if len(lru) >= self.cache_lines:
            evicted, slot = lru.popitem(last=False)
            slots[evicted] = -1
        else:
            slot = len(lru)
        out = buf[slot]
        out[:] = fetch(line)
        lru[line] = slot
        slots[line] = slot
        return out

    def _materialize_row(self, r: int) -> IntArray:
        return self._materialize_axis(0, r, self._backing.dense_row)

    def _materialize_col(self, c: int) -> IntArray:
        return self._materialize_axis(1, c, self._backing.dense_col)

    def _invalidate_lines(self) -> None:
        """Drop every cached line."""
        self._row_lru.clear()
        self._col_lru.clear()
        self._row_slots.fill(-1)
        self._col_slots.fill(-1)

    # -- reads ----------------------------------------------------------
    def get(self, r: int, c: int) -> int:
        return int(self._materialize_row(r)[c])

    def row_gather(self, r: int, cols: IntArray) -> IntArray:
        return self._materialize_row(r)[np.asarray(cols, dtype=np.int64)]

    def col_gather(self, c: int, rows: IntArray) -> IntArray:
        return self._materialize_col(c)[np.asarray(rows, dtype=np.int64)]

    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        return self._backing.gather(rows, cols)

    def dense_row(self, r: int) -> IntArray:
        return self._materialize_row(r).copy()

    def dense_col(self, c: int) -> IntArray:
        return self._materialize_col(c).copy()

    def diagonal(self) -> IntArray:
        return self._backing.diagonal()

    def sym_row_cdf(self, u: int) -> RowCDF:
        row = self._materialize_row(u)
        col = self._materialize_col(u)
        return RowCDF(None, _K.sym_cdf_lines(row, col))

    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        return self._backing.nonzero()

    def row_sums(self) -> IntArray:
        return self._backing.row_sums()

    def col_sums(self) -> IntArray:
        return self._backing.col_sums()

    def to_dense(self) -> np.ndarray:
        return self._backing.to_dense()

    def likelihood_matrix(self) -> np.ndarray:
        return self._backing.likelihood_matrix()

    # -- mutations ------------------------------------------------------
    def apply_move(self, r, s, t_out, c_out, t_in, c_in, loops) -> None:
        t_out = np.asarray(t_out, dtype=np.int64)
        t_in = np.asarray(t_in, dtype=np.int64)
        parts_r = [
            np.full(t_out.shape[0], r, dtype=np.int64),
            np.full(t_out.shape[0], s, dtype=np.int64),
            t_in, t_in,
        ]
        parts_c = [t_out, t_out,
                   np.full(t_in.shape[0], r, dtype=np.int64),
                   np.full(t_in.shape[0], s, dtype=np.int64)]
        parts_d = [-np.asarray(c_out, dtype=np.int64),
                   np.asarray(c_out, dtype=np.int64),
                   -np.asarray(c_in, dtype=np.int64),
                   np.asarray(c_in, dtype=np.int64)]
        if loops:
            diag = np.asarray([r, s], dtype=np.int64)
            parts_r.append(diag)
            parts_c.append(diag)
            parts_d.append(np.asarray([-loops, loops], dtype=np.int64))
        self._record(
            np.concatenate(parts_r),
            np.concatenate(parts_c),
            np.concatenate(parts_d),
        )

    def scatter_edges(self, old_src, old_dst, new_src, new_dst) -> None:
        old_src = np.asarray(old_src, dtype=np.int64)
        new_src = np.asarray(new_src, dtype=np.int64)
        rows = np.concatenate([old_src, new_src])
        if rows.shape[0] == 0:
            return
        cols = np.concatenate([
            np.asarray(old_dst, dtype=np.int64),
            np.asarray(new_dst, dtype=np.int64),
        ])
        deltas = np.concatenate([
            np.full(old_src.shape[0], -1, dtype=np.int64),
            np.full(new_src.shape[0], 1, dtype=np.int64),
        ])
        self._record(rows, cols, deltas)

    def merge_into(self, r: int, s: int) -> None:
        self._backing.merge_into(r, s)
        # Every cached row holds cells at columns r and s, and every
        # cached column holds cells at rows r and s — all shifted by the
        # merge, so the whole cache (and every CDF built on it) is stale.
        self._invalidate_lines()

    def compact(self, keep: IntArray, mapping: IntArray) -> "HybridBlockState":
        return HybridBlockState(self._backing.compact(keep, mapping))

    def copy(self) -> "HybridBlockState":
        return HybridBlockState(self._backing.copy(), self.cache_lines)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_edges(cls, src_blocks, dst_blocks, num_blocks) -> "HybridBlockState":
        return cls(SparseBlockState.from_edges(src_blocks, dst_blocks, num_blocks))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "HybridBlockState":
        return cls(SparseBlockState.from_dense(dense))

    # -- observability --------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._backing.nnz

    @property
    def total(self) -> int:
        return self._backing.total

    def memory_bytes(self) -> int:
        """Backing + line buffers + lookup arrays."""
        total = self._backing.memory_bytes()
        total += int(self._row_slots.nbytes) + int(self._col_slots.nbytes)
        per_array_overhead = 112
        for buf in (self._row_buf, self._col_buf):
            if buf is not None:
                total += int(buf.nbytes) + per_array_overhead
        return total


# ----------------------------------------------------------------------
# The "auto" storage policy
# ----------------------------------------------------------------------
#: Config value that defers the engine choice to the policy below.
AUTO_STORAGE = "auto"

#: Environment override for the policy's dense-matrix memory budget.
STORAGE_BUDGET_ENV = "REPRO_STORAGE_BUDGET_BYTES"

#: Above this budget a dense (C, C) int64 matrix is refused by default.
_DEFAULT_BUDGET_BYTES = 512 * 2**20

#: Below this footprint dense always wins — cache-resident and O(1) reads.
_SMALL_DENSE_BYTES = 32 * 2**20

#: A matrix this full gains nothing from sparse-backed storage.
_DENSE_DENSITY = 0.05


def _storage_budget() -> int:
    """The dense-matrix budget: :data:`STORAGE_BUDGET_ENV` or the default."""
    raw = os.environ.get(STORAGE_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET_BYTES
    try:
        budget = int(raw)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        raise BackendError(
            f"{STORAGE_BUDGET_ENV}={raw!r} is not a byte count "
            "(expected a non-negative integer)"
        )
    return budget


def resolve_block_storage(
    name: str,
    num_blocks: int,
    num_edges: int,
    budget_bytes: int | None = None,
) -> tuple[str, str]:
    """Resolve a storage name to a concrete engine; explain the choice.

    Concrete names pass through untouched. ``"auto"`` picks by the dense
    footprint of a ``(C, C)`` matrix at the given block count against a
    memory budget, and by the expected density ``E / C²``: small or
    near-dense matrices go ``dense``, everything else ``hybrid``. Fits
    resolve it at every state they build (the singleton start at
    C = V, each merge output, a warm start), so a run follows the
    agglomerative schedule onto ``dense`` once C is small. The decision
    is a pure function of ``(C, E, budget)``, so resolving it at C = V
    is safe to fold into checkpoint config digests. Returns
    ``(engine, reason)``; a malformed budget variable raises
    :class:`~repro.errors.BackendError`.
    """
    if name != AUTO_STORAGE:
        return name, "explicit"
    if budget_bytes is None:
        budget_bytes = _storage_budget()
    c = max(int(num_blocks), 1)
    dense_bytes = 8 * c * c
    density = float(num_edges) / float(c * c)
    if dense_bytes <= _SMALL_DENSE_BYTES:
        return "dense", (
            f"dense fits comfortably: {dense_bytes} B at C={c} "
            f"(threshold {_SMALL_DENSE_BYTES} B)"
        )
    if dense_bytes <= budget_bytes and density >= _DENSE_DENSITY:
        return "dense", (
            f"near-dense matrix (density {density:.3g} >= {_DENSE_DENSITY}) "
            f"within budget ({dense_bytes} <= {budget_bytes} B)"
        )
    return "hybrid", (
        f"C={c} would need {dense_bytes} B dense against a "
        f"{budget_bytes} B budget at density {density:.3g}"
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
BLOCK_STORAGES: Registry[type[BlockState]] = Registry("block storage", BackendError)
register_block_storage = BLOCK_STORAGES.register
get_block_storage = BLOCK_STORAGES.get
available_block_storages = BLOCK_STORAGES.names

register_block_storage("dense", DenseBlockState)
register_block_storage("sparse", SparseBlockState)
register_block_storage("hybrid", HybridBlockState)
