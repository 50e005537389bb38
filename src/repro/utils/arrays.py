"""Small vectorized array helpers shared by the batch kernels."""

from __future__ import annotations

import numpy as np

from repro.types import IntArray

__all__ = ["expand_ranges", "stable_argsort"]


def expand_ranges(starts: IntArray, lengths: IntArray) -> IntArray:
    """Concatenate ``arange(starts[i], starts[i] + lengths[i])`` for all i.

    The gather primitive of the CSR-walking batch kernels: turns per-row
    (offset, length) pairs into one flat index vector without a Python
    loop.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=cum[1:])
    return np.arange(total, dtype=np.int64) + np.repeat(starts - cum, lengths)


def stable_argsort(keys: IntArray, bound: int) -> IntArray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    numpy sorts 16-bit integers stably by radix but int64 by timsort.
    This is a least-significant-digit radix sort over 16-bit digits,
    one stable ``uint16`` pass per 16 bits of ``bound - 1``, so it
    returns the same permutation in linear time per pass.
    """
    keys = np.asarray(keys)
    order = np.arange(keys.shape[0])
    shift = 0
    while (bound - 1) >> shift:
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order
