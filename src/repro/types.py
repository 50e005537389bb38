"""Shared type aliases and small dataclasses used across the library."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import partial
from typing import TypeAlias

import numpy as np
import numpy.typing as npt

__all__ = [
    "IntArray",
    "FloatArray",
    "Assignment",
    "EdgeList",
    "FieldKind",
    "PhaseTimings",
    "SweepStats",
]

#: 1-D or 2-D array of integer counts / indices.
IntArray: TypeAlias = npt.NDArray[np.int64]

#: 1-D or 2-D array of floats.
FloatArray: TypeAlias = npt.NDArray[np.float64]

#: Community membership vector: ``assignment[v]`` is the block of vertex v.
Assignment: TypeAlias = npt.NDArray[np.int64]

#: Edge list of shape (E, 2) with columns (source, target).
EdgeList: TypeAlias = npt.NDArray[np.int64]


class FieldKind(Enum):
    """How a run-record field merges; each field declares one, in its
    dataclass metadata (``field.metadata["kind"]``)."""

    #: Top-level time bucket in seconds: summed, counted in ``total``.
    BUCKET = "bucket"
    #: Part of a top-level bucket: summed, left out of ``total``.
    SUB_BUCKET = "sub_bucket"
    #: Sampled level: merged by max.
    GAUGE = "gauge"
    #: Additive count: summed. A ``PhaseTimings`` counter is read from
    #: the backend's comm report under its ``report_key``.
    COUNTER = "counter"
    #: Per-vertex array or None: concatenated.
    VECTOR = "vector"


def _declare(kind: FieldKind, default=0, **rules):
    """A field of ``kind``. ``required=True`` marks a timing written by
    every result format since v1: a file without it is malformed."""
    return field(default=default, metadata={"kind": kind, **rules})


_bucket = partial(_declare, FieldKind.BUCKET, 0.0)
_sub_bucket = partial(_declare, FieldKind.SUB_BUCKET, 0.0)
_gauge = partial(_declare, FieldKind.GAUGE)
_counter = partial(_declare, FieldKind.COUNTER)


def _merge(a, b):
    """Merge two records of one type field by field, by :class:`FieldKind`."""
    values = {}
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        kind = f.metadata["kind"]
        if kind is FieldKind.GAUGE:
            values[f.name] = max(x, y)
        elif kind is FieldKind.VECTOR:
            values[f.name] = y if x is None else x if y is None else np.concatenate([x, y])
        else:
            values[f.name] = x + y
    return type(a)(**values)


@dataclass
class PhaseTimings:
    """Accumulated wall-clock time per algorithm phase, in seconds.

    The ICPP'22 paper reports its Fig. 2 breakdown (MCMC vs block-merge +
    other) and all speedup numbers from exactly these accumulators. Each
    field declares its :class:`FieldKind` once, below; ``total``,
    ``merged_with``, :meth:`from_run` and the result file format loop
    over those declarations.

    ``merge_scan`` and ``merge_apply`` split ``block_merge`` into the
    embarrassingly parallel candidate scan (the part the merge backends
    accelerate) and the sequential sort/union-find/rebuild tail of
    Alg. 1. ``barrier_rebuild`` and ``barrier_apply`` split ``rebuild``,
    the per-sweep synchronization barrier, by update strategy: a full
    O(E) recount versus the O(Σ deg(moved)) delta-apply. A run uses one
    strategy, so at most one of the two is non-zero.

    ``sampling`` and ``extension`` are the SamBaS front-end stages
    (:mod:`repro.sampling`): the whole sample-graph fit, and the
    membership-extension pass. ``finetune`` mirrors the sum of the
    full-graph search's own buckets, which it is part of, so that
    reports can split full-graph time from front-end time. All three are
    zero for plain (``sample_rate=1.0``) runs.

    The gauges are peak process RSS at the end of the run and the final
    blockmodel's inter-block-matrix non-zero count and density; a
    best-of protocol's peak is the max over member runs. The counters
    are the distributed runtime's wire report (zero for single-process
    backends): point-to-point messages, bytes framed onto the transport,
    frame retransmissions masked by the reliable layer, received frames
    quarantined for failing validation, and shard re-leases (each one a
    dead rank whose vertices moved to survivors).
    """

    block_merge: float = _bucket(required=True)
    mcmc: float = _bucket(required=True)
    rebuild: float = _bucket(required=True)
    other: float = _bucket(required=True)
    merge_scan: float = _sub_bucket()
    merge_apply: float = _sub_bucket()
    barrier_rebuild: float = _sub_bucket()
    barrier_apply: float = _sub_bucket()
    sampling: float = _bucket()
    extension: float = _bucket()
    finetune: float = _sub_bucket()
    peak_rss_bytes: int = _gauge()
    b_nnz: int = _gauge()
    b_density: float = _gauge(0.0)
    comm_messages: int = _counter(report_key="p2p_messages")
    comm_bytes: int = _counter(report_key="total_bytes")
    comm_retries: int = _counter(report_key="retries")
    frames_quarantined: int = _counter(report_key="frames_quarantined")
    shard_releases: int = _counter(report_key="shard_releases")

    @classmethod
    def from_run(
        cls, seconds: Mapping[str, float], comm_report: Mapping[str, object]
    ) -> "PhaseTimings":
        """A run's record: time buckets from ``seconds`` (absent names
        are 0.0), counters from ``comm_report``; gauges stay zero."""
        values: dict[str, object] = {}
        for f in fields(cls):
            kind = f.metadata["kind"]
            if kind in (FieldKind.BUCKET, FieldKind.SUB_BUCKET):
                values[f.name] = seconds.get(f.name, 0.0)
            elif kind is FieldKind.COUNTER:
                values[f.name] = int(comm_report.get(f.metadata["report_key"], 0))
        return cls(**values)

    @property
    def total(self) -> float:
        # Added in declaration order, one at a time: sum() compensates
        # rounding on Python >= 3.12, which would change the last bit.
        total = 0.0
        for f in fields(self):
            if f.metadata["kind"] is FieldKind.BUCKET:
                total += getattr(self, f.name)
        return total

    @property
    def mcmc_fraction(self) -> float:
        """Fraction of total runtime spent in the MCMC phase (Fig. 2)."""
        total = self.total
        if total <= 0.0:
            return 0.0
        return (self.mcmc + self.rebuild) / total

    def only(self, *kinds: FieldKind) -> "PhaseTimings":
        """A copy keeping the fields of ``kinds``; the rest are zero."""
        return type(self)(**{
            f.name: getattr(self, f.name)
            for f in fields(self) if f.metadata["kind"] in kinds
        })

    def merged_with(self, other: "PhaseTimings") -> "PhaseTimings":
        return _merge(self, other)


@dataclass
class SweepStats:
    """Per-sweep bookkeeping emitted by the MCMC kernels.

    Attributes
    ----------
    proposals:
        Number of vertex moves proposed during the sweep.
    accepted:
        Number of proposals accepted.
    delta_mdl:
        Change in full MDL over the sweep (new - old); negative is better.
    serial_work:
        Work units (degree-weighted proposal evaluations) executed in the
        inherently serial portion of the sweep.
    parallel_work:
        Work units executed in the parallelizable portion of the sweep.
    barrier_moved:
        Number of vertices whose block changed at the sweep's
        synchronization barrier (the moved set the update engine must
        reconcile). Serial in-place passes apply moves immediately and
        contribute 0; for async/batched/hybrid sweeps this is the size
        of the delta the barrier pays for — the quantity the
        ``incremental`` engine's cost is proportional to.
    b_nnz, b_density:
        Gauges sampled after the sweep's barrier: non-zero cells of the
        inter-block matrix and their fraction of C^2. Tracks how sparse
        the matrix the storage engines hold actually is as the
        agglomeration coarsens.
    work_per_vertex:
        Optional per-vertex work-unit vector for the parallel portion,
        consumed by the simulated thread executor (Fig. 7).
    """

    proposals: int = _counter()
    accepted: int = _counter()
    delta_mdl: float = _counter(0.0)
    serial_work: float = _counter(0.0)
    parallel_work: float = _counter(0.0)
    barrier_moved: int = _counter()
    b_nnz: int = _gauge()
    b_density: float = _gauge(0.0)
    work_per_vertex: IntArray | None = field(
        default=None, repr=False, metadata={"kind": FieldKind.VECTOR}
    )

    @property
    def acceptance_rate(self) -> float:
        if self.proposals == 0:
            return 0.0
        return self.accepted / self.proposals

    def merged_with(self, other: "SweepStats") -> "SweepStats":
        """Counters add, gauges keep the max, work vectors concatenate."""
        return _merge(self, other)

    def without_work(self) -> "SweepStats":
        """A copy without the O(V) work vector, which only runs with
        ``record_work`` keep (the simulated thread executor needs it)."""
        return replace(self, work_per_vertex=None)
