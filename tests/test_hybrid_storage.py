"""Hybrid-engine internals: LRU eviction, write-through, policy.

The equivalence matrices (``test_block_storage.py``,
``test_storage_equivalence.py``) prove the hybrid engine replays dense
chains end-to-end; this module attacks the machinery those matrices can
miss by luck — evictions racing write-throughs, the write-time audit,
memory accounting and the ``auto`` storage policy.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import SBPConfig, run_sbp
from repro.errors import BlockmodelError
from repro.resilience.checkpoint import RunCheckpointer, config_digest
from repro.sbm.block_storage import (
    AUTO_STORAGE,
    STORAGE_BUDGET_ENV,
    DenseBlockState,
    HybridBlockState,
    SparseBlockState,
    resolve_block_storage,
)


def _ref_matrix(C: int = 8, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    B = rng.integers(0, 5, size=(C, C)).astype(np.int64)
    B[rng.random((C, C)) < 0.4] = 0
    return B


def _tiny_hybrid(C: int = 8, cache_lines: int = 2, seed: int = 3):
    """A hybrid state with an adversarially small cache + its dense twin."""
    ref = _ref_matrix(C, seed)
    state = HybridBlockState(SparseBlockState.from_dense(ref), cache_lines)
    return state, DenseBlockState.from_dense(ref)


class TestLRUEviction:
    def test_default_cache_budget(self):
        state = HybridBlockState(SparseBlockState.from_dense(_ref_matrix()))
        assert state.cache_lines == 8  # min(max(256, C // 16), C): capped at C
        src = np.asarray([0], dtype=np.int64)
        dst = np.asarray([1], dtype=np.int64)
        mid = HybridBlockState.from_edges(src, dst, 4096)
        assert mid.cache_lines == 256  # the floor
        big = HybridBlockState.from_edges(src, dst, 8192)
        assert big.cache_lines == 512  # C // 16

    def test_evict_then_reread_equals_fresh_gather(self):
        """An evicted line that had writes re-reads correctly."""
        state, dense = _tiny_hybrid(cache_lines=2)
        # Materialize rows 0 and 1, then write into row 0.
        state.dense_row(0)
        state.dense_row(1)
        src = np.asarray([0], dtype=np.int64)
        dst = np.asarray([3], dtype=np.int64)
        state.scatter_edges(src, dst, src, np.asarray([5], dtype=np.int64))
        dense.scatter_edges(src, dst, src, np.asarray([5], dtype=np.int64))
        # Churn the cache so row 0 (oldest) is evicted, then re-read it.
        state.dense_row(2)
        state.dense_row(3)
        assert 0 not in state._row_lru
        assert_array_equal(state.dense_row(0), dense.dense_row(0))
        assert_array_equal(
            state.row_gather(0, np.arange(8)), dense.dense_row(0)
        )

    def test_write_through_during_pending_eviction(self):
        """Writes landing while the cache is full stay coherent.

        A batch touching both cached lines (write-through) and the line
        about to evict them (miss → materialize → evict) must leave
        every read equal to the dense oracle.
        """
        state, dense = _tiny_hybrid(cache_lines=2)
        state.dense_row(0)
        state.dense_row(1)  # cache full: {0, 1}
        old_src = np.asarray([0, 1, 2], dtype=np.int64)
        old_dst = np.asarray([3, 2, 4], dtype=np.int64)
        new_src = np.asarray([0, 1, 2], dtype=np.int64)
        new_dst = np.asarray([4, 5, 6], dtype=np.int64)
        state.scatter_edges(old_src, old_dst, new_src, new_dst)
        dense.scatter_edges(old_src, old_dst, new_src, new_dst)
        # Touching row 2 evicts row 0 *after* the write-through landed.
        assert_array_equal(state.dense_row(2), dense.dense_row(2))
        assert 0 not in state._row_lru
        for r in range(8):
            assert_array_equal(state.dense_row(r), dense.dense_row(r))
            assert_array_equal(state.dense_col(r), dense.dense_col(r))

    @pytest.mark.parametrize("cache_lines", [2, None])
    def test_adversarial_access_fuzz(self, cache_lines):
        """Fixed-seed op soup stays byte-equal to dense.

        A 2-line cache evicts on almost every read; the default budget
        caches every line at C = 12.
        """
        C = 12
        rng = np.random.default_rng(20240807)
        ref = rng.integers(0, 6, size=(C, C)).astype(np.int64)
        state = HybridBlockState(SparseBlockState.from_dense(ref), cache_lines)
        dense = DenseBlockState.from_dense(ref)
        for step in range(300):
            op = rng.integers(0, 7)
            if op == 0:  # move an edge endpoint between live cells
                r, c = (int(x) for x in rng.integers(0, C, 2))
                row = dense.dense_row(r)
                if row.sum() == 0:
                    continue
                old_c = int(rng.choice(np.nonzero(row)[0]))
                args = (
                    np.asarray([r], dtype=np.int64),
                    np.asarray([old_c], dtype=np.int64),
                    np.asarray([r], dtype=np.int64),
                    np.asarray([c], dtype=np.int64),
                )
                state.scatter_edges(*args)
                dense.scatter_edges(*args)
                assert_array_equal(
                    state._backing.to_dense(), dense.to_dense(),
                    err_msg=f"backing diverged at step {step}",
                )
            elif op == 1:
                u = int(rng.integers(0, C))
                assert_array_equal(
                    state.sym_row_cdf(u).cdf,
                    dense.sym_row_cdf(u).cdf,
                    err_msg=f"sym_row_cdf({u}) diverged at step {step}",
                )
            elif op == 2:
                r = int(rng.integers(0, C))
                assert_array_equal(state.dense_row(r), dense.dense_row(r))
            elif op == 3:
                c = int(rng.integers(0, C))
                assert_array_equal(state.dense_col(c), dense.dense_col(c))
            elif op == 4:
                rows, cols = rng.integers(0, C, (2, 5))
                assert_array_equal(
                    state.gather(rows, cols), dense.gather(rows, cols)
                )
            elif op == 5:
                for got, want in zip(state.nonzero(), dense.nonzero()):
                    assert_array_equal(got, want)
            else:
                r, c = (int(x) for x in rng.integers(0, C, 2))
                assert state.get(r, c) == dense.get(r, c)
        assert_array_equal(state.to_dense(), dense.to_dense())


class TestWriteThrough:
    def test_negative_count_raises_at_write(self):
        """The backing's audit fires at the write: going negative raises."""
        C = 6
        state = HybridBlockState(
            SparseBlockState.from_dense(np.zeros((C, C), dtype=np.int64)), 2
        )
        src = np.asarray([1], dtype=np.int64)
        dst = np.asarray([2], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(BlockmodelError, match="negative count"):
            state.scatter_edges(src, dst, empty, empty)  # remove a phantom edge


class TestMemoryAccounting:
    def test_sparse_counts_flat_cache(self):
        """The two flat layouts are the whole footprint; reads cache nothing.

        Two int64 keys and two int64 counts per non-zero cell.
        """
        ref = _ref_matrix(32, seed=9)
        state = SparseBlockState.from_dense(ref)
        assert state.memory_bytes() == 32 * np.count_nonzero(ref)
        idx = np.asarray([0, 1, 2], dtype=np.int64)
        state.gather(idx, idx + 3)
        state.nonzero()
        state.sym_row_cdf(4)
        state.dense_row(5)
        assert state.memory_bytes() == 32 * np.count_nonzero(ref)
        zero_cells = np.flatnonzero(ref.reshape(-1) == 0)[:5]
        state.add_cells(zero_cells // 32, zero_cells % 32, np.ones(5, dtype=np.int64))
        assert state.memory_bytes() == 32 * (np.count_nonzero(ref) + 5)

    def test_sparse_covers_line_payloads(self):
        """Every row and column line is a slice the accounting covers."""
        C = 16
        state = SparseBlockState.from_dense(_ref_matrix(C, seed=5))
        payload = sum(
            int(arr.nbytes)
            for axis in (0, 1)
            for u in range(C)
            for arr in state._line(axis, u)
        )
        assert state.memory_bytes() == payload

    def test_hybrid_counts_cache(self):
        state, _ = _tiny_hybrid(C=16, cache_lines=4)
        base = state.memory_bytes()
        assert base >= state._backing.memory_bytes()
        state.dense_row(0)
        state.dense_col(1)
        assert state.memory_bytes() > base

    def test_hybrid_cache_is_bounded(self):
        state, _ = _tiny_hybrid(C=32, cache_lines=3)
        for r in range(32):
            state.dense_row(r)
            state.dense_col(r)
        assert len(state._row_lru) == 3
        assert len(state._col_lru) == 3


class TestAutoPolicy:
    def test_explicit_names_pass_through(self):
        for name in ("dense", "sparse", "hybrid"):
            engine, reason = resolve_block_storage(name, 10**6, 10**7)
            assert engine == name
            assert reason == "explicit"

    def test_small_graphs_go_dense(self):
        engine, reason = resolve_block_storage(AUTO_STORAGE, 500, 4000)
        assert engine == "dense"
        assert "fits" in reason

    def test_large_sparse_graphs_go_hybrid(self):
        # C = 2^16 would need 32 GiB dense; way past any default budget.
        engine, _ = resolve_block_storage(AUTO_STORAGE, 1 << 16, 10**6)
        assert engine == "hybrid"

    def test_near_dense_within_budget_stays_dense(self):
        # 8 * 4096^2 = 128 MiB <= 512 MiB default budget, density ~ 0.06.
        c = 4096
        engine, reason = resolve_block_storage(AUTO_STORAGE, c, c * c // 16)
        assert engine == "dense"
        assert "density" in reason

    def test_budget_env_override(self, monkeypatch):
        c = 4096
        monkeypatch.setenv(STORAGE_BUDGET_ENV, str(10**6))
        engine, _ = resolve_block_storage(AUTO_STORAGE, c, c * c // 16)
        assert engine == "hybrid"
        monkeypatch.delenv(STORAGE_BUDGET_ENV)
        engine, _ = resolve_block_storage(AUTO_STORAGE, c, c * c // 16)
        assert engine == "dense"

    def test_explicit_budget_beats_env(self, monkeypatch):
        monkeypatch.setenv(STORAGE_BUDGET_ENV, str(10**12))
        engine, _ = resolve_block_storage(
            AUTO_STORAGE, 4096, 4096 * 4096 // 16, budget_bytes=10**6
        )
        assert engine == "hybrid"

    def test_config_accepts_auto(self):
        config = SBPConfig(block_storage=AUTO_STORAGE)
        assert config.block_storage == AUTO_STORAGE

    @pytest.mark.slow
    def test_run_records_resolved_engine(self, planted_graph):
        graph, _ = planted_graph
        config = SBPConfig(seed=9, block_storage=AUTO_STORAGE, max_sweeps=8)
        result = run_sbp(graph, config)
        # 80 vertices → dense fits comfortably.
        assert result.block_storage == "dense"
        explicit = run_sbp(
            graph, SBPConfig(seed=9, block_storage="dense", max_sweeps=8)
        )
        assert_array_equal(result.assignment, explicit.assignment)
        assert result.mdl == explicit.mdl

    @pytest.mark.slow
    def test_auto_checkpoint_interops_with_resolved_name(
        self, planted_graph, tmp_path
    ):
        """Digests record the *resolved* engine, so auto and its
        resolution share checkpoints instead of refusing each other."""
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt")
        auto = SBPConfig(seed=5, block_storage=AUTO_STORAGE, max_sweeps=8)
        first = run_sbp(graph, auto, checkpointer=ck)
        resumed = run_sbp(
            graph,
            SBPConfig(seed=5, block_storage="dense", max_sweeps=8),
            checkpointer=ck,
        )
        assert_array_equal(resumed.assignment, first.assignment)
        assert resumed.mdl == first.mdl

    def test_digest_requires_resolution_first(self):
        """A digest of an unresolved auto config differs from dense's —
        the run loop must resolve before digesting (and does)."""
        auto = SBPConfig(seed=1, block_storage=AUTO_STORAGE)
        dense = SBPConfig(seed=1, block_storage="dense")
        assert config_digest(auto) != config_digest(dense)
        assert config_digest(auto.replace(block_storage="dense")) == (
            config_digest(dense)
        )
