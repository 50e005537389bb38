"""Jitted sweep kernels for the hot trio, with a bit-identical numpy fallback.

The per-sweep cost of every storage engine concentrates in three tiny
kernels (paper §2.2's "computing dMDL and the subsequent updates to B"):

* **CDF assembly + integer-plateau draw** — building the symmetrized-row
  prefix sum ``cumsum(B[u, :] + B[:, u])`` and resolving the
  floor-and-clamp inverse-CDF lookup (:mod:`repro.sbm.moves`,
  :class:`~repro.sbm.block_storage.RowCDF`);
* **scalar delta-MDL accumulation** — the ``x log x`` terms and the
  strictly left-to-right ``_seq_sum`` reduction of
  :mod:`repro.sbm.delta`;
* **the duplicate-safe index add** — every dense-engine write
  (``BlockState.add_cells`` on the flat view of ``B``, so
  ``apply_move``, ``scatter_edges`` and the rebuilds) and the barrier's
  degree-vector updates (:mod:`repro.sbm.incremental`).

This module publishes one dispatch name per kernel. At import time it
selects, per kernel, either a ``numba.njit(cache=True)`` implementation
or the pure-numpy reference:

* numba missing, or ``REPRO_DISABLE_JIT=1`` in the environment → every
  dispatch name *is* the numpy reference (the exact pre-existing
  expressions, so behaviour and rounding are unchanged by construction);
* numba present → integer kernels are adopted unconditionally (int64
  arithmetic is exact, so a loop and a ufunc cannot disagree), while
  float kernels must first pass a bitwise **parity probe** against the
  numpy reference — ``np.log`` may be vectorized differently from
  libm's scalar ``log``, and a last-ulp difference would break the
  byte-equal trajectory contract. A kernel that fails the probe silently
  stays on numpy; :func:`kernel_table` reports what actually runs.

The golden-trajectory and storage-equivalence gates run with jit on and
off (CI job ``kernels``), so the selection can never change a chain.
"""

from __future__ import annotations

import os

import numpy as np

from repro.sbm.entropy import xlogx_counts as _xlogx_counts_np

__all__ = [
    "JIT_DISABLE_ENV",
    "jit_enabled",
    "jit_status",
    "kernel_table",
    "sym_cdf_dense",
    "sym_cdf_lines",
    "cdf_index",
    "seq_sum",
    "xlogx_scalar",
    "xlogx_counts",
    "index_add",
    "index_sub",
]

#: Setting this environment variable to a non-empty value other than
#: ``0``/``false`` forces the pure-numpy fallback even when numba is
#: importable (read once, at import).
JIT_DISABLE_ENV = "REPRO_DISABLE_JIT"


# ----------------------------------------------------------------------
# Pure-numpy references. These are the canonical expressions the rest of
# the codebase used before the kernel module existed; the dispatch names
# resolve to them verbatim whenever jit is off, so the fallback path is
# the oracle by construction.
# ----------------------------------------------------------------------
def _sym_cdf_dense_np(B: np.ndarray, u: int) -> np.ndarray:
    """Prefix sum of the symmetrized dense row ``B[u, :] + B[:, u]``."""
    return np.cumsum(B[u, :] + B[:, u])


def _sym_cdf_lines_np(row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Prefix sum of two materialized length-C lines (hybrid cache hit)."""
    return np.cumsum(row + col)


def _cdf_index_np(cdf: np.ndarray, q: int) -> int:
    """``searchsorted(cdf, q, side="right")`` — the plateau-safe lookup."""
    return int(np.searchsorted(cdf, q, side="right"))


def _seq_sum_np(terms: np.ndarray) -> float:
    """Strictly left-to-right float sum (``cumsum`` last element)."""
    if terms.size == 0:
        return 0.0
    return float(np.cumsum(terms)[-1])


def _xlogx_scalar_np(x: float) -> float:
    """``x log x`` with the ``0 log 0 = 0`` convention, scalar form."""
    return 0.0 if x <= 0 else float(x * np.log(x))


def _index_add_np(target: np.ndarray, idx: np.ndarray, vals) -> None:
    """``target[idx] += vals`` with duplicate indices accumulated."""
    np.add.at(target, idx, vals)


def _index_sub_np(target: np.ndarray, idx: np.ndarray, vals) -> None:
    """``target[idx] -= vals`` with duplicate indices accumulated."""
    np.subtract.at(target, idx, vals)


# ----------------------------------------------------------------------
# Import-time selection
# ----------------------------------------------------------------------
def _jit_disabled_by_env() -> bool:
    raw = os.environ.get(JIT_DISABLE_ENV, "").strip().lower()
    return raw not in ("", "0", "false")


_DISABLED = _jit_disabled_by_env()
_NUMBA_IMPORT_ERROR: Exception | None = None
if _DISABLED:
    _njit = None
else:
    try:
        from numba import njit as _njit
    except Exception as exc:  # pragma: no cover - depends on environment
        _njit = None
        _NUMBA_IMPORT_ERROR = exc

#: kernel name -> "numba" | "numpy"; filled by the selection below.
_TABLE: dict[str, str] = {}


def _select(name: str, numpy_impl, numba_impl):
    """Pick the implementation for ``name`` and record the choice."""
    if numba_impl is None:
        _TABLE[name] = "numpy"
        return numpy_impl
    _TABLE[name] = "numba"
    return numba_impl


if _njit is not None:  # pragma: no cover - exercised by the CI kernels job

    @_njit(cache=True)
    def _sym_cdf_dense_nb(B, u):
        C = B.shape[0]
        out = np.empty(C, dtype=np.int64)
        acc = np.int64(0)
        for j in range(C):
            acc += B[u, j] + B[j, u]
            out[j] = acc
        return out

    @_njit(cache=True)
    def _sym_cdf_lines_nb(row, col):
        C = row.shape[0]
        out = np.empty(C, dtype=np.int64)
        acc = np.int64(0)
        for j in range(C):
            acc += row[j] + col[j]
            out[j] = acc
        return out

    @_njit(cache=True)
    def _cdf_index_nb(cdf, q):
        lo = 0
        hi = cdf.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] <= q:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @_njit(cache=True)
    def _seq_sum_nb(terms):
        acc = 0.0
        for i in range(terms.shape[0]):
            acc += terms[i]
        return acc

    @_njit(cache=True)
    def _xlogx_scalar_nb(x):
        if x <= 0.0:
            return 0.0
        return x * np.log(x)

    @_njit(cache=True)
    def _xlogx_counts_nb(x):
        out = np.zeros(x.shape[0], dtype=np.float64)
        for i in range(x.shape[0]):
            xi = x[i]
            if xi > 0.0:
                out[i] = xi * np.log(xi)
        return out

    @_njit(cache=True)
    def _index_add_nb(target, idx, vals):
        for i in range(idx.shape[0]):
            target[idx[i]] += vals[i]

    @_njit(cache=True)
    def _index_sub_nb(target, idx, vals):
        for i in range(idx.shape[0]):
            target[idx[i]] -= vals[i]

    def _float_kernel_parity_ok() -> bool:
        """Bitwise probe: jitted float kernels vs the numpy references.

        The delta kernels only ever evaluate ``x log x`` on
        integer-valued float64 counts, so the probe covers small
        integers densely plus large magnitudes, and ``seq_sum`` on
        signed mixed-magnitude terms. Any single-bit disagreement
        rejects the jitted float kernels (integer kernels are immune —
        int64 arithmetic has one correct answer).
        """
        counts = np.concatenate([
            np.arange(0.0, 2048.0),
            np.array([1e4, 12345.0, 1e6, 87654321.0, 1e9, 1e12, 3e15]),
        ])
        ref = _xlogx_counts_np(counts)
        if not np.array_equal(ref, _xlogx_counts_nb(counts)):
            return False
        for x in counts:
            if _xlogx_scalar_np(float(x)) != _xlogx_scalar_nb(float(x)):
                return False
        rng = np.random.default_rng(12345)
        for size in (1, 2, 7, 63, 1024):
            terms = rng.standard_normal(size) * rng.choice(
                [1.0, 1e-9, 1e9], size=size
            )
            if _seq_sum_np(terms) != _seq_sum_nb(terms):
                return False
        return True

    _FLOAT_PARITY = _float_kernel_parity_ok()
    _seq_sum_jit = _seq_sum_nb if _FLOAT_PARITY else None
    _xlogx_scalar_jit = _xlogx_scalar_nb if _FLOAT_PARITY else None
    _xlogx_counts_jit = _xlogx_counts_nb if _FLOAT_PARITY else None
    _sym_cdf_dense_jit = _sym_cdf_dense_nb
    _sym_cdf_lines_jit = _sym_cdf_lines_nb
    _cdf_index_jit = _cdf_index_nb
    _index_add_jit = _index_add_nb
    _index_sub_jit = _index_sub_nb
else:
    _FLOAT_PARITY = False
    _seq_sum_jit = None
    _xlogx_scalar_jit = None
    _xlogx_counts_jit = None
    _sym_cdf_dense_jit = None
    _sym_cdf_lines_jit = None
    _cdf_index_jit = None
    _index_add_jit = None
    _index_sub_jit = None


#: Compressed/dense symmetrized-row CDF assembly (int64, exact).
sym_cdf_dense = _select("sym_cdf_dense", _sym_cdf_dense_np, _sym_cdf_dense_jit)
#: CDF assembly from two materialized lines (hybrid cache hits).
sym_cdf_lines = _select("sym_cdf_lines", _sym_cdf_lines_np, _sym_cdf_lines_jit)
#: Integer-plateau inverse-CDF lookup (``side="right"`` semantics).
cdf_index = _select("cdf_index", _cdf_index_np, _cdf_index_jit)
#: Strictly left-to-right float sum (delta-MDL reduction discipline).
seq_sum = _select("seq_sum", _seq_sum_np, _seq_sum_jit)
#: Scalar ``x log x`` (corner/degree delta terms).
xlogx_scalar = _select("xlogx_scalar", _xlogx_scalar_np, _xlogx_scalar_jit)
#: Vectorized ``x log x`` over count arrays (generic delta terms).
xlogx_counts = _select("xlogx_counts", _xlogx_counts_np, _xlogx_counts_jit)
#: Duplicate-accumulating ``target[idx] += vals``.
index_add = _select("index_add", _index_add_np, _index_add_jit)
#: Duplicate-accumulating ``target[idx] -= vals``.
index_sub = _select("index_sub", _index_sub_np, _index_sub_jit)


def jit_enabled() -> bool:
    """True when at least one dispatch name resolved to a numba kernel."""
    return any(impl == "numba" for impl in _TABLE.values())


def kernel_table() -> dict[str, str]:
    """Kernel name -> the implementation actually selected at import."""
    return dict(_TABLE)


def jit_status() -> dict[str, object]:
    """Machine-readable selection summary (diagnostics / benchmarks)."""
    return {
        "disabled_by_env": _DISABLED,
        "numba_importable": _njit is not None,
        "float_parity": bool(_FLOAT_PARITY),
        "kernels": kernel_table(),
    }
