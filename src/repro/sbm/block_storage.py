"""Pluggable blockmodel storage engines — the ``BlockState`` protocol.

The inference path never needs a dense ``(C, C)`` matrix per se. A
storage engine implements seven primitives:

* :meth:`~BlockState.gather` — elementwise cell reads (the batch
  delta-MDL and Hastings kernels of :mod:`repro.parallel.vectorized`),
* :meth:`~BlockState.nonzero` — the row-major non-zero triplets (the
  batch merge kernels and every whole-matrix read),
* :meth:`~BlockState.sym_row_cdf` — a symmetrized-row CDF view for the
  multinomial proposal draws (:mod:`repro.sbm.moves`),
* :meth:`~BlockState.add_cells` — integer deltas added to cells, which
  is all that Alg. 2's in-place move and Alg. 3's sweep barrier
  (:mod:`repro.sbm.incremental`) do to the matrix,
* :meth:`~BlockState.copy`, :meth:`~BlockState.from_triplets` and
  :meth:`~BlockState.memory_bytes`.

:class:`BlockState` derives every other read and write from them, once:
the scalar and line reads from ``gather``; the sums, densification and
gauges from ``nonzero``; ``apply_move``, ``scatter_edges`` and
``merge_into`` as one ``add_cells`` call each; ``compact``,
``from_edges`` and ``from_dense`` through ``from_triplets``. An engine
overrides a derived method only where it has a faster path.

This module defines that contract (:class:`BlockState`), a registry
(:data:`BLOCK_STORAGES`, with :func:`register_block_storage` /
:func:`get_block_storage`) and the three built-in engines:

``dense``
    The original contiguous int64 matrix, retained as the oracle. Its
    :attr:`~DenseBlockState.B` attribute is the *live* array, so legacy
    code (and tests) that read or poke ``bm.B`` keep working unchanged.
    It overrides the whole-matrix reads with numpy's own.
``sparse``
    Two flat sorted layouts of the non-zero cells, each with its counts:
    keys ``r * C + c`` (row-major, so a row is a slice) and ``c * C + r``
    (the mirrored column index). ``gather`` and ``nonzero`` read the
    first, ``sym_row_cdf`` slices both, and every write merges its
    aggregated deltas into both, so no read rebuilds anything.
``hybrid``
    An LRU of materialized dense rows/columns in front of a sparse
    backing store. CDF and line reads hit the dense cache lines
    (dense-identity :class:`RowCDF`, so draws are byte-equal to the
    oracle), and a missed line is filled from the backing's slice of
    it; writes go through to the sparse backing at once and to every
    cached line they touch; ``gather`` and ``nonzero`` are the
    backing's.

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
        idx = int(np.searchsorted(self.cdf, q, side="right"))
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


def _int64(*arrays) -> list[IntArray]:
    """Each argument as an int64 array (no copy when it already is one)."""
    return [np.asarray(a, dtype=np.int64) for a in arrays]


class BlockState(ABC):
    """Storage contract for the inter-block edge-count matrix.

    All values are int64 edge counts; ``get(r, c)`` is the cell the
    dense oracle calls ``B[r, c]``. An engine implements the seven
    abstract primitives; every other method is derived from them here.
    Writes must leave subsequent reads exactly equal to the dense
    engine's after the same call sequence, and a write that drives a
    count negative is a bug in the caller's delta accounting.
    """

    name: str = "abstract"
    num_blocks: int

    # -- primitives -----------------------------------------------------
    @abstractmethod
    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        """Elementwise read ``B[rows[i], cols[i]]`` (fresh array)."""

    @abstractmethod
    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        """Non-zero triplets ``(rows, cols, vals)`` in row-major order.

        The same ordering ``np.nonzero`` gives on the dense matrix —
        the batch merge kernels rely on it for their sequential
        accumulation discipline.
        """

    @abstractmethod
    def sym_row_cdf(self, u: int) -> RowCDF:
        """Prefix-sum CDF of the symmetrized row ``B[u, :] + B[:, u]``."""

    @abstractmethod
    def add_cells(self, rows: IntArray, cols: IntArray, deltas: IntArray) -> None:
        """Add int64 ``deltas[i]`` to cell ``(rows[i], cols[i])``.

        Duplicate cells accumulate. The sparse-backed engines raise
        :class:`~repro.errors.BlockmodelError` when a count would go
        negative; the dense engine does not audit.
        """

    @abstractmethod
    def copy(self) -> "BlockState":
        """An independent deep copy."""

    @classmethod
    @abstractmethod
    def from_triplets(
        cls, rows: IntArray, cols: IntArray, vals: IntArray, num_blocks: int
    ) -> "BlockState":
        """Build from ``(row, col, count)`` triplets; duplicates accumulate."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Approximate resident bytes of the storage structure."""

    # -- reads derived from gather --------------------------------------
    def get(self, r: int, c: int) -> int:
        """Scalar cell read ``B[r, c]``."""
        return int(self.gather(np.array([r], dtype=np.int64),
                               np.array([c], dtype=np.int64))[0])

    def row_gather(self, r: int, cols: IntArray) -> IntArray:
        """Batched row read ``B[r, cols]`` (fresh array)."""
        cols = np.asarray(cols, dtype=np.int64)
        return self.gather(np.full(cols.shape, r, dtype=np.int64), cols)

    def col_gather(self, c: int, rows: IntArray) -> IntArray:
        """Batched column read ``B[rows, c]`` (fresh array)."""
        rows = np.asarray(rows, dtype=np.int64)
        return self.gather(rows, np.full(rows.shape, c, dtype=np.int64))

    def dense_row(self, r: int) -> IntArray:
        """Row ``r`` as a dense length-C vector (fresh array)."""
        return self.row_gather(r, np.arange(self.num_blocks, dtype=np.int64))

    def dense_col(self, c: int) -> IntArray:
        """Column ``c`` as a dense length-C vector (fresh array)."""
        return self.col_gather(c, np.arange(self.num_blocks, dtype=np.int64))

    def diagonal(self) -> IntArray:
        """The diagonal ``B[i, i]`` as a length-C vector (fresh array)."""
        idx = np.arange(self.num_blocks, dtype=np.int64)
        return self.gather(idx, idx)

    # -- reads derived from nonzero -------------------------------------
    def row_sums(self) -> IntArray:
        """Per-row totals (the out-degree vector)."""
        rows, _, vals = self.nonzero()
        out = np.zeros(self.num_blocks, dtype=np.int64)
        np.add.at(out, rows, vals)
        return out

    def col_sums(self) -> IntArray:
        """Per-column totals (the in-degree vector)."""
        _, cols, vals = self.nonzero()
        out = np.zeros(self.num_blocks, dtype=np.int64)
        np.add.at(out, cols, vals)
        return out

    def to_dense(self) -> np.ndarray:
        """A dense int64 copy of the matrix."""
        rows, cols, vals = self.nonzero()
        out = np.zeros((self.num_blocks, self.num_blocks), dtype=np.int64)
        out[rows, cols] = vals
        return out

    def likelihood_matrix(self) -> np.ndarray:
        """Dense int64 matrix for MDL evaluation.

        The entropy kernel's ``np.sum`` pairwise summation over the
        flattened dense matrix is part of the bit-identity contract, so
        even sparse engines hand it a dense materialization (the dense
        engine returns its live array, no copy).
        """
        return self.to_dense()

    @property
    def nnz(self) -> int:
        """Number of non-zero cells."""
        return int(self.nonzero()[0].shape[0])

    @property
    def total(self) -> int:
        """Sum of all counts (the number of edges)."""
        return int(self.nonzero()[2].sum())

    @property
    def density(self) -> float:
        """``nnz / C^2`` (0 for an empty matrix)."""
        c = self.num_blocks
        return float(self.nnz) / float(c * c) if c else 0.0

    def equals_dense(self, dense: np.ndarray) -> bool:
        """Exact comparison against a dense reference matrix."""
        return bool(np.array_equal(self.to_dense(), dense))

    # -- writes derived from add_cells ----------------------------------
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
        apply_move` (degree vectors live in the blockmodel, not here):
        cells ``(r, t_out)`` move to ``(s, t_out)``, ``(t_in, r)`` to
        ``(t_in, s)`` and ``loops`` self-loops from ``(r, r)`` to
        ``(s, s)``.
        """
        t_out, c_out, t_in, c_in = _int64(t_out, c_out, t_in, c_in)
        rs = np.asarray([r, s], dtype=np.int64)
        self.add_cells(
            np.concatenate([np.repeat(rs, t_out.shape[0]), t_in, t_in, rs]),
            np.concatenate([t_out, t_out, np.repeat(rs, t_in.shape[0]), rs]),
            np.concatenate([-c_out, c_out, -c_in, c_in, [-loops, loops]]),
        )

    def scatter_edges(
        self,
        old_src: IntArray,
        old_dst: IntArray,
        new_src: IntArray,
        new_dst: IntArray,
    ) -> None:
        """Batch sweep delta-apply: ``-1`` at old pairs, ``+1`` at new."""
        old_src, old_dst, new_src, new_dst = _int64(old_src, old_dst, new_src, new_dst)
        self.add_cells(
            np.concatenate([old_src, new_src]),
            np.concatenate([old_dst, new_dst]),
            np.repeat(np.asarray([-1, 1], dtype=np.int64),
                      [old_src.shape[0], new_src.shape[0]]),
        )

    def merge_into(self, r: int, s: int) -> None:
        """Fold row/column ``r`` into ``s`` and zero block ``r``."""
        row, col = self.dense_row(r), self.dense_col(r)
        col[r] = 0  # the (r, r) cell moves with the row
        t_row, t_col = np.flatnonzero(row), np.flatnonzero(col)
        rs = np.asarray([r, s], dtype=np.int64)
        # Row r cells (r, t) move to (s, t) — the diagonal to (s, s);
        # column r cells (t, r) move to (t, s).
        self.add_cells(
            np.concatenate([np.repeat(rs, t_row.shape[0]), t_col, t_col]),
            np.concatenate([t_row, np.where(t_row == r, s, t_row),
                            np.repeat(rs, t_col.shape[0])]),
            np.concatenate([-row[t_row], row[t_row], -col[t_col], col[t_col]]),
        )

    # -- transitions derived from from_triplets -------------------------
    def compact(self, keep: IntArray, mapping: IntArray) -> "BlockState":
        """A new state keeping blocks ``keep``, relabeled by ``mapping``."""
        rows, cols, vals = self.nonzero()
        rows, cols = mapping[rows], mapping[cols]
        live = (rows >= 0) & (cols >= 0)
        return self.from_triplets(
            rows[live], cols[live], vals[live], int(keep.shape[0])
        )

    @classmethod
    def from_edges(
        cls, src_blocks: IntArray, dst_blocks: IntArray, num_blocks: int
    ) -> "BlockState":
        """Count block-pair edges from aligned endpoint-block arrays."""
        src_blocks, dst_blocks = _int64(src_blocks, dst_blocks)
        ones = np.ones(src_blocks.shape[0], dtype=np.int64)
        return cls.from_triplets(src_blocks, dst_blocks, ones, num_blocks)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BlockState":
        """Build from a dense int64 matrix (serialization round-trip)."""
        dense = np.asarray(dense, dtype=np.int64)
        if (dense < 0).any():
            raise BlockmodelError("dense matrix has negative counts")
        rows, cols = np.nonzero(dense)
        return cls.from_triplets(
            rows.astype(np.int64), cols.astype(np.int64),
            dense[rows, cols], int(dense.shape[0]),
        )


# ----------------------------------------------------------------------
# Dense engine (the oracle)
# ----------------------------------------------------------------------
class DenseBlockState(BlockState):
    """Contiguous ``(C, C)`` int64 matrix — the original storage.

    ``B`` is the live array (not a copy): legacy call sites and tests
    that mutate ``bm.B`` in place observe and affect this engine's real
    state, exactly as before the refactor. The constructor makes ``B``
    C-contiguous (a no-op for C-ordered int64 input, so the caller's
    array stays aliased), because :meth:`add_cells` writes through its
    flat view.
    """

    name = "dense"

    __slots__ = ("B", "num_blocks")

    def __init__(self, B: np.ndarray) -> None:
        B = np.ascontiguousarray(B, dtype=np.int64)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise BlockmodelError(f"B must be square, got shape {B.shape}")
        self.B = B
        self.num_blocks = int(B.shape[0])

    # -- primitives -----------------------------------------------------
    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        return self.B[rows, cols]

    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        rows, cols = np.nonzero(self.B)
        return rows.astype(np.int64), cols.astype(np.int64), self.B[rows, cols]

    def sym_row_cdf(self, u: int) -> RowCDF:
        return RowCDF(None, np.cumsum(self.B[u, :] + self.B[:, u]))

    def add_cells(self, rows: IntArray, cols: IntArray, deltas: IntArray) -> None:
        rows, cols, deltas = _int64(rows, cols, deltas)
        np.add.at(self.B.reshape(-1), rows * self.num_blocks + cols, deltas)

    def copy(self) -> "DenseBlockState":
        return DenseBlockState(self.B.copy())

    @classmethod
    def from_triplets(cls, rows, cols, vals, num_blocks) -> "DenseBlockState":
        state = cls(np.zeros((num_blocks, num_blocks), dtype=np.int64))
        state.add_cells(rows, cols, vals)
        return state

    def memory_bytes(self) -> int:
        return int(self.B.nbytes)

    # -- faster paths ---------------------------------------------------
    def row_sums(self) -> IntArray:
        return self.B.sum(axis=1)

    def col_sums(self) -> IntArray:
        return self.B.sum(axis=0)

    def to_dense(self) -> np.ndarray:
        return self.B.copy()

    def likelihood_matrix(self) -> np.ndarray:
        return self.B

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.B))

    @property
    def total(self) -> int:
        return int(self.B.sum())

    def compact(self, keep: IntArray, mapping: IntArray) -> "DenseBlockState":
        return DenseBlockState(self.B[np.ix_(keep, keep)])

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DenseBlockState":
        return cls(np.asarray(dense, dtype=np.int64).copy())


# ----------------------------------------------------------------------
# Sparse engine
# ----------------------------------------------------------------------
def _merge(keys: IntArray, vals: IntArray, ukeys: IntArray, deltas: IntArray
           ) -> tuple[IntArray, IntArray]:
    """Sorted ``(keys, vals)`` plus ``deltas`` at sorted unique ``ukeys``.

    Returns new arrays; cells whose count reaches zero drop out.
    """
    pos = np.searchsorted(keys, ukeys)
    hit = pos < keys.shape[0]
    hit[hit] = keys[pos[hit]] == ukeys[hit]
    vals = vals.copy()
    vals[pos[hit]] += deltas[hit]
    miss = ~hit
    keys = np.insert(keys, pos[miss], ukeys[miss])
    vals = np.insert(vals, pos[miss], deltas[miss])
    live = vals != 0
    return keys[live], vals[live]


class SparseBlockState(BlockState):
    """Per-row sorted ``(cols, vals)`` arrays with a mirrored column index.

    The non-zero cells live in two flat sorted layouts, each with its
    strictly positive counts: ``_keys``/``_vals`` keyed ``r * C + c`` in
    ascending (row-major) order, and ``_tkeys``/``_tvals`` keyed
    ``c * C + r``, the mirrored column index. A row or a column is the
    slice between two ``searchsorted`` bounds on one of them
    (:meth:`_line`). :meth:`gather` probes ``_keys`` and :meth:`nonzero`
    decodes it, handing out the live ``_vals`` (callers only read it),
    so no read builds anything. :meth:`add_cells` merges its aggregated
    deltas into both layouts as new arrays, after checking that no count
    goes negative.
    """

    name = "sparse"

    __slots__ = ("num_blocks", "_keys", "_vals", "_tkeys", "_tvals")

    def __init__(self, num_blocks: int) -> None:
        self.num_blocks = int(num_blocks)
        self._keys = self._vals = self._tkeys = self._tvals = _EMPTY

    def _cells(self, rows: IntArray, cols: IntArray, deltas: IntArray
               ) -> tuple[IntArray, IntArray]:
        """Sorted unique ``r * C + c`` keys and their non-zero summed deltas."""
        rows, cols, deltas = _int64(rows, cols, deltas)
        keys, inv = np.unique(rows * self.num_blocks + cols, return_inverse=True)
        agg = np.zeros(keys.shape[0], dtype=np.int64)
        np.add.at(agg, inv, deltas)
        live = agg != 0
        return keys[live], agg[live]

    def _transposed(self, keys: IntArray, vals: IntArray
                    ) -> tuple[IntArray, IntArray]:
        """The same cells keyed ``c * C + r``, in ascending order."""
        C = self.num_blocks
        tkeys = keys % C * C + keys // C
        order = np.argsort(tkeys)
        return tkeys[order], vals[order]

    def _line(self, axis: int, index: int) -> tuple[IntArray, IntArray]:
        """Row (``axis`` 0) or column (1) ``index``: sorted indices, counts."""
        keys, vals = (self._keys, self._vals) if axis == 0 else (self._tkeys, self._tvals)
        start = index * self.num_blocks
        lo, hi = np.searchsorted(keys, [start, start + self.num_blocks])
        return keys[lo:hi] - start, vals[lo:hi]

    # -- primitives -----------------------------------------------------
    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        rows, cols = _int64(rows, cols)
        keys = self._keys
        wanted = rows * self.num_blocks + cols
        out = np.zeros(wanted.shape, dtype=np.int64)
        if keys.shape[0] and wanted.size:
            pos = np.minimum(np.searchsorted(keys, wanted), keys.shape[0] - 1)
            hit = keys[pos] == wanted
            out[hit] = self._vals[pos[hit]]
        return out

    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        rows, cols = np.divmod(self._keys, self.num_blocks)
        return rows, cols, self._vals

    def sym_row_cdf(self, u: int) -> RowCDF:
        rc, rv = self._line(0, u)
        cc, cv = self._line(1, u)
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

    def add_cells(self, rows: IntArray, cols: IntArray, deltas: IntArray) -> None:
        keys, deltas = self._cells(rows, cols, deltas)
        if keys.shape[0] == 0:
            return
        new_keys, new_vals = _merge(self._keys, self._vals, keys, deltas)
        if (new_vals < 0).any():
            raise BlockmodelError(f"negative count in {self.name} storage")
        self._tkeys, self._tvals = _merge(
            self._tkeys, self._tvals, *self._transposed(keys, deltas)
        )
        self._keys, self._vals = new_keys, new_vals

    def copy(self) -> "SparseBlockState":
        out = SparseBlockState(self.num_blocks)
        out._keys, out._vals = self._keys.copy(), self._vals.copy()
        out._tkeys, out._tvals = self._tkeys.copy(), self._tvals.copy()
        return out

    @classmethod
    def from_triplets(cls, rows, cols, vals, num_blocks) -> "SparseBlockState":
        state = cls(num_blocks)
        keys, vals = state._cells(rows, cols, vals)
        if (vals < 0).any():
            raise BlockmodelError("negative aggregate count in triplets")
        state._keys, state._vals = keys, vals
        state._tkeys, state._tvals = state._transposed(keys, vals)
        return state

    def memory_bytes(self) -> int:
        """Bytes of the two layouts' key and count arrays."""
        return sum(int(a.nbytes) for a in
                   (self._keys, self._vals, self._tkeys, self._tvals))


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
    dense-identity form and draws are byte-equal by construction. The
    scalar and line reads go through the same cache. A miss fills its
    slot from the backing's sorted slice of the line (two
    ``searchsorted`` bounds on one of its layouts).

    Writes go through at once: :meth:`add_cells` merges the batch into
    the sparse backing (whose aggregation path audits non-negativity, so
    a negative count raises at the write, before any cached line
    changes), then updates every cached cell of the batch with one
    ``np.add.at`` per axis on the 2-D buffer (the slot array turns
    "which of these lines are cached" into one fancy index — no
    per-line Python loop). Cached lines therefore stay exact through
    every derived write, merges included, and nothing is ever
    invalidated. ``gather``, ``nonzero`` and copies go straight to the
    backing. A fit reads the whole state after every write (the next
    batch-kernel call's ``gather`` or the sweep's MDL), so deferring
    writes past it would save nothing. With the default budget
    (``max(256, C // 16)`` lines per axis, capped at C) the buffers top
    out at ``2 · cache_lines · C · 8`` bytes — 12.5% of the dense matrix
    at C ≥ 4096.

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

    # -- line materialization -------------------------------------------
    def _dense_line(self, axis: int, line: int) -> IntArray:
        """Row (``axis`` 0) or column (1) ``line`` as a cached dense line.

        A miss takes a free LRU slot, or evicts the least recently used
        line, and fills it from the backing's sorted slice of that line.
        """
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
        out[:] = 0
        index, vals = self._backing._line(axis, line)
        out[index] = vals
        lru[line] = slot
        slots[line] = slot
        return out

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

    # -- primitives -----------------------------------------------------
    def gather(self, rows: IntArray, cols: IntArray) -> IntArray:
        return self._backing.gather(rows, cols)

    def nonzero(self) -> tuple[IntArray, IntArray, IntArray]:
        return self._backing.nonzero()

    def sym_row_cdf(self, u: int) -> RowCDF:
        row = self._dense_line(0, u)
        col = self._dense_line(1, u)
        return RowCDF(None, np.cumsum(row + col))

    def add_cells(self, rows: IntArray, cols: IntArray, deltas: IntArray) -> None:
        """The backing first, so a delta that drives a cell negative
        raises before any cached line has changed; then write-through."""
        rows, cols, deltas = _int64(rows, cols, deltas)
        self._backing.add_cells(rows, cols, deltas)
        self._write_through(self._row_slots, self._row_buf, rows, cols, deltas)
        self._write_through(self._col_slots, self._col_buf, cols, rows, deltas)

    def copy(self) -> "HybridBlockState":
        return HybridBlockState(self._backing.copy(), self.cache_lines)

    @classmethod
    def from_triplets(cls, rows, cols, vals, num_blocks) -> "HybridBlockState":
        return cls(SparseBlockState.from_triplets(rows, cols, vals, num_blocks))

    def memory_bytes(self) -> int:
        """Backing + line buffers + lookup arrays."""
        total = self._backing.memory_bytes()
        total += int(self._row_slots.nbytes) + int(self._col_slots.nbytes)
        per_array_overhead = 112
        for buf in (self._row_buf, self._col_buf):
            if buf is not None:
                total += int(buf.nbytes) + per_array_overhead
        return total

    # -- line reads through the LRU -------------------------------------
    def get(self, r: int, c: int) -> int:
        return int(self._dense_line(0, r)[c])

    def row_gather(self, r: int, cols: IntArray) -> IntArray:
        return self._dense_line(0, r)[np.asarray(cols, dtype=np.int64)]

    def col_gather(self, c: int, rows: IntArray) -> IntArray:
        return self._dense_line(1, c)[np.asarray(rows, dtype=np.int64)]

    def dense_row(self, r: int) -> IntArray:
        return self._dense_line(0, r).copy()

    def dense_col(self, c: int) -> IntArray:
        return self._dense_line(1, c).copy()


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
