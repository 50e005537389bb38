"""MDL objective for the degree-corrected SBM (paper Eqs. 1-2).

The paper's quality function is the minimum description length

    MDL = E * h(C^2 / E) + V * log(C) - L(G | B)            (Eq. 2)

with ``h(x) = (1 + x) log(1 + x) - x log(x)`` and the DCSBM
log-likelihood

    L(G | B) = sum_ij B_ij * log(B_ij / (d_out_i * d_in_j))  (Eq. 1)

Implementation note: expanding the logarithm gives the identity

    L = sum_ij g(B_ij) - sum_i g(d_out_i) - sum_j g(d_in_j),

with ``g(x) = x log x``, because ``sum_j B_ij = d_out_i`` and
``sum_i B_ij = d_in_j``. This form needs no division, never sees a
``log(0)`` for empty blocks, and — crucially — lets vertex-move deltas
be computed from only the O(degree) *changed* matrix cells plus four
degree terms (see :mod:`repro.sbm.delta`).
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray

__all__ = [
    "xlogx",
    "xlogx_counts",
    "h_binary",
    "dcsbm_log_likelihood",
    "description_length",
    "null_description_length",
    "normalized_description_length",
]


def xlogx(x: np.ndarray | float) -> np.ndarray | float:
    """Elementwise ``x * log(x)`` with the convention ``0 log 0 = 0``."""
    out = xlogx_counts(x)
    if np.ndim(x) == 0:
        return float(out)
    return out


def xlogx_counts(x: np.ndarray) -> np.ndarray:
    """Vectorized ``x log x`` over non-negative count arrays.

    The delta-MDL kernels (:mod:`repro.sbm.delta`) and the batch sweep
    backend (:mod:`repro.parallel.vectorized`) evaluate this on every
    changed blockmodel cell; it is the single canonical implementation
    both import so serial and vectorized paths share bit-identical
    rounding. Unlike :func:`xlogx` it always returns an array (no scalar
    unwrapping), which keeps it allocation-minimal on the hot path.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(arr)
    mask = arr > 0
    np.multiply(arr, np.log(arr, where=mask, out=np.zeros_like(arr)), where=mask, out=out)
    return out


def h_binary(x: float) -> float:
    """The paper's ``h(x) = (1 + x) log(1 + x) - x log(x)`` (Eq. 2)."""
    if x < 0:
        raise ValueError(f"h(x) requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return float((1.0 + x) * np.log1p(x) - x * np.log(x))


def dcsbm_log_likelihood(
    B: np.ndarray, d_out: FloatArray | np.ndarray, d_in: FloatArray | np.ndarray
) -> float:
    """DCSBM log-likelihood L(G|B) of Eq. 1, in nats.

    Parameters
    ----------
    B:
        Inter-block edge-count matrix of shape (C, C).
    d_out, d_in:
        Block out-/in-degree vectors; must equal the row/column sums of
        ``B`` (not checked here for speed; the Blockmodel maintains it).
    """
    return float(np.sum(xlogx(B)) - np.sum(xlogx(d_out)) - np.sum(xlogx(d_in)))


def description_length(
    num_edges: int,
    num_vertices: int,
    B: np.ndarray,
    d_out: np.ndarray,
    d_in: np.ndarray,
    num_blocks: int | None = None,
) -> float:
    """Full MDL of Eq. 2 for a blockmodel over a graph with V, E known.

    ``num_blocks`` defaults to the matrix dimension; pass the number of
    *non-empty* blocks to price only occupied communities.
    """
    if num_blocks is None:
        num_blocks = B.shape[0]
    if num_edges == 0:
        return 0.0
    model_cost = num_edges * h_binary(num_blocks**2 / num_edges)
    label_cost = num_vertices * np.log(num_blocks) if num_blocks > 0 else 0.0
    return float(model_cost + label_cost - dcsbm_log_likelihood(B, d_out, d_in))


def null_description_length(num_edges: int, num_vertices: int) -> float:
    """MDL of the structure-less null model (every vertex in one block).

    The paper normalizes MDL by this quantity (§4.2): with C = 1 the
    blockmodel is ``B = [[E]]`` and ``d_out = d_in = [E]``, so
    ``L = -E log E`` and ``MDL_null = E h(1/E) + E log E``.
    """
    if num_edges == 0:
        return 0.0
    return float(num_edges * h_binary(1.0 / num_edges) + num_edges * np.log(num_edges))


def normalized_description_length(mdl: float, num_edges: int, num_vertices: int) -> float:
    """``MDL / MDL_null`` — the paper's MDL^norm quality score.

    Values near (or above) 1.0 mean the fitted blockmodel describes the
    graph no better than "everything in one community"; lower is better.
    """
    null = null_description_length(num_edges, num_vertices)
    if null == 0.0:
        return float("nan")
    return float(mdl / null)
