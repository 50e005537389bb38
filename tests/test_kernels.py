"""Kernel dispatch parity: numpy references vs whatever got selected.

``repro.sbm.kernels`` picks its implementations once at import — numba
jits when importable (floats only behind a bitwise parity probe), numpy
otherwise. These tests pin the dispatched callables to the numpy
reference semantics on adversarial inputs, so in an environment with
numba they double as jit/numpy parity gates, and without numba they
pin the references themselves. CI runs this module both ways.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.sbm import kernels as K
from repro.sbm.entropy import xlogx_counts as entropy_xlogx

_NAMES = (
    "sym_cdf_dense", "sym_cdf_lines", "cdf_index", "seq_sum",
    "xlogx_scalar", "xlogx_counts", "index_add", "index_sub",
)


class TestDispatch:
    def test_table_is_complete(self):
        table = K.kernel_table()
        assert set(table) == set(_NAMES)
        assert set(table.values()) <= {"numpy", "numba"}

    def test_status_shape(self):
        status = K.jit_status()
        assert set(status) >= {
            "disabled_by_env", "numba_importable", "float_parity", "kernels",
        }
        assert status["kernels"] == K.kernel_table()
        assert K.jit_enabled() == ("numba" in K.kernel_table().values())

    def test_disable_env_forces_numpy(self):
        """With the kill switch set, a fresh import selects numpy-only."""
        env = dict(os.environ, **{K.JIT_DISABLE_ENV: "1"})
        env.setdefault("PYTHONPATH", "src")
        code = (
            "from repro.sbm import kernels as K; "
            "assert K.jit_status()['disabled_by_env']; "
            "assert not K.jit_enabled(); "
            "assert set(K.kernel_table().values()) == {'numpy'}"
        )
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=120
        )


class TestCdfKernels:
    def test_sym_cdf_dense_matches_reference(self):
        rng = np.random.default_rng(7)
        B = rng.integers(0, 9, size=(17, 17)).astype(np.int64)
        for u in range(17):
            assert_array_equal(
                K.sym_cdf_dense(B, u), np.cumsum(B[u, :] + B[:, u])
            )

    def test_sym_cdf_lines_matches_reference(self):
        rng = np.random.default_rng(8)
        row = rng.integers(0, 9, 33).astype(np.int64)
        col = rng.integers(0, 9, 33).astype(np.int64)
        assert_array_equal(K.sym_cdf_lines(row, col), np.cumsum(row + col))

    def test_cdf_index_matches_searchsorted(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 4, 64).astype(np.int64)
        counts[rng.random(64) < 0.5] = 0  # force plateaus
        cdf = np.cumsum(counts)
        for q in range(int(cdf[-1])):
            assert K.cdf_index(cdf, q) == int(
                np.searchsorted(cdf, q, side="right")
            )

    def test_cdf_index_never_lands_on_zero_plateau(self):
        """The draw-side bit-identity theorem, checked exhaustively.

        Integer draws ``q = floor(u * total)`` range over ``[0, total)``;
        ``side="right"`` semantics must map every q to a block with a
        nonzero symmetrized count, zero plateaus notwithstanding.
        """
        counts = np.asarray([0, 3, 0, 0, 2, 0, 1, 0], dtype=np.int64)
        cdf = np.cumsum(counts)
        for q in range(int(cdf[-1])):
            idx = K.cdf_index(cdf, q)
            assert counts[idx] > 0, f"draw {q} landed on zero plateau {idx}"
        # Plateau edges explicitly: q = 2 is the last unit of block 1,
        # q = 3 the first unit of block 4.
        assert K.cdf_index(cdf, 2) == 1
        assert K.cdf_index(cdf, 3) == 4
        assert K.cdf_index(cdf, 5) == 6


class TestFloatKernels:
    def test_seq_sum_is_bitwise_cumsum_tail(self):
        rng = np.random.default_rng(12345)
        for size in (0, 1, 2, 7, 63, 1024):
            terms = rng.normal(scale=1e6, size=size) + rng.normal(size=size)
            expect = 0.0 if size == 0 else float(np.cumsum(terms)[-1])
            assert K.seq_sum(terms) == expect  # bitwise, not approx

    def test_xlogx_scalar_matches_reference(self):
        for x in (0.0, -3.0, 1.0, 2.0, 1e4, 12345.0, 87654321.0, 3e15):
            expect = 0.0 if x <= 0 else float(x * np.log(x))
            assert K.xlogx_scalar(x) == expect

    def test_xlogx_counts_matches_entropy_module(self):
        counts = np.concatenate([
            np.arange(0, 2048, dtype=np.int64),
            np.asarray([10**4, 12345, 10**6, 87654321], dtype=np.int64),
        ])
        assert_array_equal(K.xlogx_counts(counts), entropy_xlogx(counts))


class TestScatterKernels:
    def test_index_add_sub_handle_duplicates(self):
        target = np.arange(10, dtype=np.int64)
        idx = np.asarray([1, 1, 3, 1], dtype=np.int64)
        vals = np.asarray([2, 2, 5, 1], dtype=np.int64)
        expect = target.copy()
        np.add.at(expect, idx, vals)
        K.index_add(target, idx, vals)
        assert_array_equal(target, expect)
        np.subtract.at(expect, idx, vals)
        K.index_sub(target, idx, vals)
        assert_array_equal(target, expect)


class TestNumbaParity:
    """Only meaningful where numba is installed (the CI ``kernels`` job)."""

    def test_integer_kernels_adopt_numba(self):
        pytest.importorskip("numba")
        if K.jit_status()["disabled_by_env"]:
            pytest.skip("jit disabled via environment")
        table = K.kernel_table()
        # Integer kernels are exact in any implementation and must be
        # jitted unconditionally when numba imports.
        for name in ("sym_cdf_dense", "sym_cdf_lines", "cdf_index",
                     "index_add", "index_sub"):
            assert table[name] == "numba", f"{name} not jitted"

    def test_jit_vs_numpy_bitwise_on_mixed_magnitudes(self):
        pytest.importorskip("numba")
        if not K.jit_enabled():
            pytest.skip("jit disabled via environment")
        rng = np.random.default_rng(424242)
        B = rng.integers(0, 50, size=(257, 257)).astype(np.int64)
        for u in (0, 128, 256):
            assert_array_equal(K.sym_cdf_dense(B, u), K._sym_cdf_dense_np(B, u))
        cdf = np.cumsum(rng.integers(0, 3, 999).astype(np.int64))
        for q in rng.integers(0, max(int(cdf[-1]), 1), 200):
            assert K.cdf_index(cdf, int(q)) == K._cdf_index_np(cdf, int(q))
        # Float kernels are only adopted when the import-time probe
        # found them bitwise-identical; spot-check that held.
        terms = rng.normal(scale=1e9, size=513) + rng.normal(size=513)
        assert K.seq_sum(terms) == K._seq_sum_np(terms)
        counts = rng.integers(0, 10**9, 4096).astype(np.int64)
        assert_array_equal(K.xlogx_counts(counts), K._xlogx_counts_np(counts))
