"""Incremental blockmodel update engine — the sweep barrier, made cheap.

The paper's own profiling (§3.1, Fig. 2) identifies the per-sweep
blockmodel reconstruction as the A-SBP/H-SBP synchronization barrier:
``Blockmodel.rebuild`` recounts every edge, O(E), even late in a phase
when only a handful of vertices actually moved. :func:`apply_sweep_delta`
replaces that recount, **bit-identically** (all counts are int64, so
scatter-subtract/add is exact arithmetic, not an approximation): given
the moved-vertex set of a sweep, it updates ``B``/``d_out``/``d_in``/``d``
by subtracting the moved vertices' incident edges under the old
assignment and adding them under the new one, O(Σ deg(moved)) instead of
O(E). Self-loops and edges between two moved vertices are handled by
snapshotting every touched edge's old endpoints *before* the assignment
mutates, so each directed edge is counted exactly once on each side of
the barrier. :func:`apply_edge_delta` is the streaming analogue.

Both engines are dispatched through the
:func:`~repro.parallel.backend.get_update_strategy` registry (mirroring
the PR-1 ``MergeBackend`` pattern): ``rebuild`` is the retained O(E)
oracle, ``incremental`` the delta engine; ``SBPConfig.update_strategy``
/ ``--update-strategy`` selects one. The ``verify_every`` audit hook of
:class:`IncrementalUpdater` reuses the resilience layer's
:class:`~repro.resilience.audit.InvariantAuditor` to assert the
exact-equality claim against a recount on a configurable cadence.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.backend import SweepUpdater, register_update_strategy
from repro.sbm.blockmodel import Blockmodel
from repro.types import IntArray
from repro.utils.arrays import expand_ranges
from repro.utils.timer import StopwatchPool

__all__ = [
    "apply_sweep_delta",
    "apply_edge_delta",
    "RebuildUpdater",
    "IncrementalUpdater",
]


def apply_sweep_delta(
    bm: Blockmodel,
    graph: Graph,
    moved_vertices: IntArray,
    moved_targets: IntArray,
    scratch_mask: np.ndarray | None = None,
) -> None:
    """Apply a batch of vertex moves to ``bm`` in O(Σ deg(moved)).

    ``moved_vertices`` must hold unique vertex ids and ``moved_targets``
    their new blocks. The result is exactly the state
    ``bm.rebuild(graph, new_assignment)`` would produce — int64
    scatter-subtract/add is exact, which the equivalence tests assert
    byte-for-byte.

    ``scratch_mask`` is an optional reusable ``(V,)`` bool buffer (all
    False on entry, restored to all False on exit) used to deduplicate
    edges between two moved vertices; without it the dedup falls back to
    ``np.isin``, keeping the call free of O(V) allocations either way.

    Edge accounting: every directed edge with at least one moved
    endpoint is collected exactly once — out-edges of the moved set,
    plus in-edges whose *source* is not itself moved (those already
    appeared as someone's out-edge). Old endpoints' blocks are gathered
    before the assignment mutates and new blocks after, so moved→moved
    edges (including self-loops) migrate from ``(old_r, old_s)`` to
    ``(new_r, new_s)`` under one consistent snapshot.
    """
    moved_vertices = np.asarray(moved_vertices, dtype=np.int64)
    moved_targets = np.asarray(moved_targets, dtype=np.int64)
    if moved_vertices.shape != moved_targets.shape or moved_vertices.ndim != 1:
        raise ValueError("moved_vertices and moved_targets must be aligned 1-D arrays")
    if moved_vertices.size == 0:
        return
    assignment = bm.assignment

    out_len = graph.out_degree[moved_vertices]
    src_out = np.repeat(moved_vertices, out_len)
    dst_out = graph.out_nbrs[expand_ranges(graph.out_ptr[moved_vertices], out_len)]

    in_len = graph.in_degree[moved_vertices]
    dst_in = np.repeat(moved_vertices, in_len)
    src_in = graph.in_nbrs[expand_ranges(graph.in_ptr[moved_vertices], in_len)]
    if scratch_mask is not None:
        scratch_mask[moved_vertices] = True
        keep = ~scratch_mask[src_in]
        scratch_mask[moved_vertices] = False
    else:
        keep = ~np.isin(src_in, moved_vertices)

    src = np.concatenate([src_out, src_in[keep]])
    dst = np.concatenate([dst_out, dst_in[keep]])

    # Snapshot the old endpoint blocks of every touched edge, then move.
    old_src_blk = assignment[src]
    old_dst_blk = assignment[dst]
    old_blocks = assignment[moved_vertices]
    assignment[moved_vertices] = moved_targets
    new_src_blk = assignment[src]
    new_dst_blk = assignment[dst]

    bm.state.scatter_edges(old_src_blk, old_dst_blk, new_src_blk, new_dst_blk)

    deg_out = graph.out_degree[moved_vertices]
    deg_in = graph.in_degree[moved_vertices]
    np.subtract.at(bm.d_out, old_blocks, deg_out)
    np.add.at(bm.d_out, moved_targets, deg_out)
    np.subtract.at(bm.d_in, old_blocks, deg_in)
    np.add.at(bm.d_in, moved_targets, deg_in)
    deg = deg_out + deg_in
    np.subtract.at(bm.d, old_blocks, deg)
    np.add.at(bm.d, moved_targets, deg)


def apply_edge_delta(bm: Blockmodel, batch) -> None:
    """Apply an :class:`~repro.graph.stream.EdgeBatch` to ``bm`` in place.

    The streaming analogue of :func:`apply_sweep_delta`: where the sweep
    barrier moves vertices across blocks on a fixed graph, an edge delta
    keeps the assignment fixed and changes the graph. Both reduce to the
    same storage primitive — ``state.scatter_edges`` subtracts the
    removed edges' block pairs and adds the added edges', O(|batch|)
    instead of the O(E) recount of :meth:`Blockmodel.rebuild` against
    the new graph. Exactly equal to that recount (int64 arithmetic),
    which the streaming equivalence tests assert byte-for-byte on all
    three engines.

    ``bm`` afterwards describes the graph ``apply_edge_batch(graph,
    batch)`` returns; build that graph separately for MDL evaluation.
    A batch that grows ``num_vertices`` must have the new vertices
    already present in ``bm.assignment`` (extend the assignment and
    use :meth:`Blockmodel.from_assignment` for growth snapshots).
    """
    batch = batch.normalized()
    assignment = bm.assignment
    num_vertices = assignment.shape[0]
    for edges, label in ((batch.add, "added"), (batch.remove, "removed")):
        if edges.size and edges.max() >= num_vertices:
            raise ValueError(
                f"{label} edge endpoints exceed the assignment "
                f"({num_vertices} vertices); extend the assignment first"
            )
    rem_src = assignment[batch.remove[:, 0]]
    rem_dst = assignment[batch.remove[:, 1]]
    add_src = assignment[batch.add[:, 0]]
    add_dst = assignment[batch.add[:, 1]]

    bm.state.scatter_edges(rem_src, rem_dst, add_src, add_dst)

    ones_rem = np.ones(rem_src.shape[0], dtype=np.int64)
    ones_add = np.ones(add_src.shape[0], dtype=np.int64)
    np.subtract.at(bm.d_out, rem_src, ones_rem)
    np.subtract.at(bm.d_in, rem_dst, ones_rem)
    np.add.at(bm.d_out, add_src, ones_add)
    np.add.at(bm.d_in, add_dst, ones_add)
    np.subtract.at(bm.d, rem_src, ones_rem)
    np.subtract.at(bm.d, rem_dst, ones_rem)
    np.add.at(bm.d, add_src, ones_add)
    np.add.at(bm.d, add_dst, ones_add)


class _TimedUpdater(SweepUpdater):
    """Shared timing plumbing: accrue barrier time to a named sub-bucket."""

    #: PhaseTimings sub-bucket of ``rebuild`` this engine accrues to.
    timer_name = "barrier"

    def __init__(self, timers: StopwatchPool | None = None) -> None:
        self._timers = timers

    def apply_sweep(
        self,
        bm: Blockmodel,
        graph: Graph,
        moved_vertices: IntArray,
        moved_targets: IntArray,
    ) -> None:
        if self._timers is None:
            self._apply(bm, graph, moved_vertices, moved_targets)
            return
        with self._timers.section(self.timer_name):
            self._apply(bm, graph, moved_vertices, moved_targets)

    def _apply(self, bm, graph, moved_vertices, moved_targets) -> None:
        raise NotImplementedError


class RebuildUpdater(_TimedUpdater):
    """The O(E) recount oracle — paper Alg. 3's original barrier."""

    name = "rebuild"
    timer_name = "barrier_rebuild"

    def _apply(self, bm, graph, moved_vertices, moved_targets) -> None:
        new_assignment = bm.assignment.copy()
        new_assignment[moved_vertices] = moved_targets
        bm.rebuild(graph, new_assignment)


class IncrementalUpdater(_TimedUpdater):
    """O(Σ deg(moved)) scatter delta-apply with an optional audit hook.

    Parameters
    ----------
    timers:
        Optional :class:`StopwatchPool`; barrier time accrues to the
        ``barrier_apply`` bucket.
    verify_every:
        Audit cadence in barrier applications: every N-th call is
        followed by a full :meth:`Blockmodel.check_consistency` recount
        through the resilience layer's :class:`InvariantAuditor`
        (0 disables). The audit never mutates a healthy state, so an
        audited run stays bit-identical.
    self_heal:
        Forwarded to the auditor: rebuild-and-log instead of raising
        when an audit finds drift.
    """

    name = "incremental"
    timer_name = "barrier_apply"

    def __init__(
        self,
        timers: StopwatchPool | None = None,
        verify_every: int = 0,
        self_heal: bool = False,
    ) -> None:
        super().__init__(timers)
        if verify_every < 0:
            raise ValueError(f"verify_every must be >= 0, got {verify_every}")
        from repro.resilience.audit import InvariantAuditor

        self.verify_every = verify_every
        self._auditor = InvariantAuditor(cadence=verify_every, self_heal=self_heal)
        self._applies = 0
        self._scratch: np.ndarray | None = None

    @property
    def audits_run(self) -> int:
        return self._auditor.audits_run

    @property
    def heals(self) -> int:
        return self._auditor.heals

    def apply_sweep(
        self,
        bm: Blockmodel,
        graph: Graph,
        moved_vertices: IntArray,
        moved_targets: IntArray,
    ) -> None:
        super().apply_sweep(bm, graph, moved_vertices, moved_targets)
        self._applies += 1
        if self._auditor.due(self._applies):
            self._auditor.audit(bm, graph, self._applies)

    def _apply(self, bm, graph, moved_vertices, moved_targets) -> None:
        if self._scratch is None or self._scratch.shape[0] != graph.num_vertices:
            self._scratch = np.zeros(graph.num_vertices, dtype=bool)
        apply_sweep_delta(
            bm, graph, moved_vertices, moved_targets, scratch_mask=self._scratch
        )


register_update_strategy("rebuild", RebuildUpdater)
register_update_strategy("incremental", IncrementalUpdater)
