"""Optimal label alignment between two partitions (Hungarian matching).

NMI and ARI are permutation-invariant scores; when one instead needs the
partitions *aligned* — to report per-community precision/recall, to
visualize confusion, or to track communities across runs — the label
correspondence maximizing overlap is the linear assignment problem on
the contingency table, solved exactly with scipy's Hungarian
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.nmi import contingency_table, normalized_mutual_information
from repro.types import Assignment, IntArray

__all__ = [
    "PartitionAlignment",
    "align_partitions",
    "PartitionStability",
    "consecutive_nmi",
    "consecutive_stability",
]


@dataclass(frozen=True)
class PartitionAlignment:
    """Result of aligning ``predicted`` onto ``reference`` labels."""

    relabeled: Assignment          #: predicted labels rewritten into reference ids
    mapping: dict[int, int]        #: predicted label -> reference label
    overlap: int                   #: vertices agreeing after alignment
    accuracy: float                #: overlap / n
    confusion: IntArray            #: contingency table (reference x predicted)


def align_partitions(
    reference: Assignment, predicted: Assignment
) -> PartitionAlignment:
    """Relabel ``predicted`` to maximize agreement with ``reference``.

    Labels of ``predicted`` with no matched reference community (when it
    has more communities than the reference) keep fresh ids appended
    after the reference's label range.
    """
    from scipy.optimize import linear_sum_assignment

    reference = np.asarray(reference, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if reference.shape != predicted.shape:
        raise ValueError(
            f"label vectors must have equal shape, got {reference.shape} "
            f"vs {predicted.shape}"
        )
    table = contingency_table(reference, predicted)
    ref_ids = np.unique(reference)
    pred_ids = np.unique(predicted)

    # maximize overlap == minimize negative counts
    row_idx, col_idx = linear_sum_assignment(-table)
    mapping: dict[int, int] = {}
    for r, c in zip(row_idx, col_idx):
        mapping[int(pred_ids[c])] = int(ref_ids[r])
    # unmatched predicted labels get fresh ids beyond the reference range
    next_fresh = int(ref_ids.max()) + 1 if ref_ids.size else 0
    for label in pred_ids:
        if int(label) not in mapping:
            mapping[int(label)] = next_fresh
            next_fresh += 1

    relabeled = np.asarray([mapping[int(x)] for x in predicted], dtype=np.int64)
    overlap = int((relabeled == reference).sum())
    return PartitionAlignment(
        relabeled=relabeled,
        mapping=mapping,
        overlap=overlap,
        accuracy=overlap / reference.shape[0] if reference.size else 1.0,
        confusion=table,
    )


@dataclass(frozen=True)
class PartitionStability:
    """Consecutive-snapshot stability of a streaming partition."""

    nmi: float          #: permutation-invariant agreement in [0, 1]
    accuracy: float     #: agreement after Hungarian alignment
    num_compared: int   #: vertices present in both snapshots


def consecutive_nmi(previous: Assignment, current: Assignment) -> float:
    """NMI of ``current`` against the previous snapshot's partition.

    Streams only grow the vertex set, so the comparison runs over the
    common prefix (the vertices both snapshots label); newborn vertices
    are excluded — they have no previous label to be stable against.
    An empty prefix counts as perfectly stable.
    """
    previous = np.asarray(previous, dtype=np.int64)
    current = np.asarray(current, dtype=np.int64)
    n = min(previous.shape[0], current.shape[0])
    if n == 0:
        return 1.0
    return normalized_mutual_information(previous[:n], current[:n])


def consecutive_stability(
    previous: Assignment, current: Assignment
) -> PartitionStability:
    """Stability of ``current`` against the previous snapshot's partition.

    Compares the common prefix, as :func:`consecutive_nmi` does, and adds
    the Hungarian-aligned accuracy.
    """
    previous = np.asarray(previous, dtype=np.int64)
    current = np.asarray(current, dtype=np.int64)
    n = min(previous.shape[0], current.shape[0])
    if n == 0:
        return PartitionStability(nmi=1.0, accuracy=1.0, num_compared=0)
    aligned = align_partitions(previous[:n], current[:n])
    return PartitionStability(
        nmi=consecutive_nmi(previous, current),
        accuracy=aligned.accuracy,
        num_compared=n,
    )
