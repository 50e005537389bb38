"""Mutable degree-corrected blockmodel state.

Holds the inter-block edge-count matrix (behind a pluggable
:class:`~repro.sbm.block_storage.BlockState` engine), the block degree
vectors and the vertex-to-block assignment, and supports the three state
transitions SBP needs:

* :meth:`apply_move` — O(degree) in-place update for one vertex move
  (serial Metropolis-Hastings path, paper Alg. 2 / the V* pass of Alg. 4),
* :meth:`rebuild` — recompute the matrix from an assignment vector in one
  vectorized pass (the per-sweep reconstruction of A-SBP, Alg. 3),
* :meth:`compact` — drop empty blocks and relabel densely. The
  block-merge phase (Alg. 1) applies its merges by relabeling the
  assignment and rebuilding through :meth:`from_assignment`;
  :meth:`merge_blocks`, the in-place fold of one block into another, is
  not on that path.

Storage is selected at construction (``storage="dense"``,
``"sparse"``, ``"hybrid"`` or ``"auto"``, which resolves at the block
count being built; see :mod:`repro.sbm.block_storage`): dense keeps the
original contiguous C x C oracle, sparse keeps the non-zero cells in
two flat sorted layouts (keys ``r*C+c`` and ``c*C+r``) at 32 bytes per
non-zero cell, so its footprint scales with nnz rather than C^2. All
engines produce bit-identical trajectories. The :attr:`B` property
preserves the legacy dense view — for the dense engine it is the *live*
array (in-place pokes keep working); for sparse engines it is a dense
materialization.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BlockmodelError
from repro.graph.graph import Graph
from repro.sbm.block_storage import (
    BlockState,
    DenseBlockState,
    get_block_storage,
    resolve_block_storage,
)
from repro.sbm.entropy import description_length
from repro.types import Assignment, IntArray

__all__ = ["Blockmodel"]


def _resolve_storage(
    storage: str | type[BlockState], num_blocks: int, num_edges: int
) -> type[BlockState]:
    """The engine class for ``storage``; ``auto`` resolves at ``num_blocks``."""
    if isinstance(storage, str):
        storage, _ = resolve_block_storage(storage, num_blocks, num_edges)
        return get_block_storage(storage)
    return storage


class Blockmodel:
    """Blockmodel state for a fixed graph.

    Attributes
    ----------
    state:
        The :class:`~repro.sbm.block_storage.BlockState` engine holding
        the ``(C, C)`` int64 inter-block edge-count matrix;
        ``state.get(r, s)`` counts edges from block r to block s.
    d_out, d_in, d:
        Block degree vectors; ``d = d_out + d_in`` (self-block edges are
        counted once in each direction, so a block's ``d`` weighs its
        internal edges twice, matching the paper's proposal distribution).
    assignment:
        ``assignment[v]`` is the block of vertex v, in ``[0, C)``.
    num_blocks:
        The matrix dimension C. Blocks may be empty after moves; use
        :meth:`compact` to drop them.
    """

    __slots__ = ("state", "d_out", "d_in", "d", "assignment", "num_blocks")

    def __init__(
        self,
        B: np.ndarray | BlockState,
        d_out: IntArray,
        d_in: IntArray,
        assignment: Assignment,
        num_blocks: int,
    ) -> None:
        if isinstance(B, BlockState):
            self.state = B
        else:
            self.state = DenseBlockState(B)
        self.d_out = d_out
        self.d_in = d_in
        self.d = d_out + d_in
        self.assignment = assignment
        self.num_blocks = num_blocks

    @property
    def B(self) -> np.ndarray:
        """Dense view of the inter-block matrix.

        Live (mutable, aliasing the state) for the dense engine; a dense
        materialization for sparse engines. Kernels should read through
        :attr:`state` instead — this property exists for legacy call
        sites, diagnostics and serialization.
        """
        return self.state.likelihood_matrix()

    @property
    def storage_name(self) -> str:
        """Registry name of the active storage engine."""
        return self.state.name

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(
        cls,
        graph: Graph,
        assignment: Assignment,
        num_blocks: int | None = None,
        storage: str | type[BlockState] = "dense",
    ) -> "Blockmodel":
        """Build blockmodel state from a membership vector."""
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (graph.num_vertices,):
            raise BlockmodelError(
                f"assignment must have shape ({graph.num_vertices},), "
                f"got {assignment.shape}"
            )
        if num_blocks is None:
            num_blocks = int(assignment.max()) + 1 if assignment.size else 1
        if assignment.size and (assignment.min() < 0 or assignment.max() >= num_blocks):
            raise BlockmodelError("assignment values must lie in [0, num_blocks)")
        engine = _resolve_storage(storage, num_blocks, graph.num_edges)
        state = _count_block_edges_state(graph, assignment, num_blocks, engine)
        d_out = state.row_sums()
        d_in = state.col_sums()
        return cls(state, d_out, d_in, assignment.copy(), num_blocks)

    @classmethod
    def singleton(
        cls, graph: Graph, storage: str | type[BlockState] = "dense"
    ) -> "Blockmodel":
        """The SBP starting point: every vertex in its own block."""
        assignment = np.arange(graph.num_vertices, dtype=np.int64)
        return cls.from_assignment(
            graph, assignment, graph.num_vertices, storage=storage
        )

    def copy(self) -> "Blockmodel":
        return Blockmodel(
            self.state.copy(),
            self.d_out.copy(),
            self.d_in.copy(),
            self.assignment.copy(),
            self.num_blocks,
        )

    def rebuild(self, graph: Graph, assignment: Assignment | None = None) -> None:
        """Recompute the matrix and degrees from ``assignment`` (A-SBP step).

        When ``assignment`` is given it replaces the stored vector. The
        matrix dimension is kept so block ids remain stable across the
        rebuild (empty blocks are allowed mid-phase). The storage engine
        is preserved.
        """
        if assignment is not None:
            assignment = np.asarray(assignment, dtype=np.int64)
            if assignment.shape != self.assignment.shape:
                raise BlockmodelError("assignment shape changed across rebuild")
            self.assignment = assignment.copy()
        self.state = _count_block_edges_state(
            graph, self.assignment, self.num_blocks, type(self.state)
        )
        self.d_out = self.state.row_sums()
        self.d_in = self.state.col_sums()
        self.d = self.d_out + self.d_in

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def apply_move(
        self,
        v: int,
        s: int,
        t_out: IntArray,
        c_out: IntArray,
        t_in: IntArray,
        c_in: IntArray,
        loops: int,
        deg_out_v: int,
        deg_in_v: int,
    ) -> None:
        """Move vertex ``v`` to block ``s``, updating the matrix incrementally.

        ``t_out``/``c_out`` are the neighbour blocks of v's out-edges
        (excluding self-loops) and their multiplicities under the
        *current* assignment; likewise ``t_in`` for in-edges. ``loops``
        is v's self-loop count. These are exactly the quantities the
        delta-MDL evaluation already computed, so the move itself is
        O(degree) with no recounting.
        """
        r = int(self.assignment[v])
        if r == s:
            return
        self.state.apply_move(r, s, t_out, c_out, t_in, c_in, loops)
        self.d_out[r] -= deg_out_v
        self.d_out[s] += deg_out_v
        self.d_in[r] -= deg_in_v
        self.d_in[s] += deg_in_v
        self.d[r] -= deg_out_v + deg_in_v
        self.d[s] += deg_out_v + deg_in_v
        self.assignment[v] = s

    def apply_sweep_delta(
        self,
        graph: Graph,
        moved_vertices: IntArray,
        moved_targets: IntArray,
    ) -> None:
        """Batch move ``moved_vertices[i]`` to ``moved_targets[i]`` in place.

        The O(Σ deg(moved)) alternative to :meth:`rebuild` at the A-SBP
        sweep barrier: scatter-subtract the moved vertices' incident
        edges under the old assignment, scatter-add under the new one.
        Exactly equal to a full recount (int64 arithmetic); see
        :func:`repro.sbm.incremental.apply_sweep_delta` for the edge
        accounting.
        """
        from repro.sbm.incremental import apply_sweep_delta

        apply_sweep_delta(self, graph, moved_vertices, moved_targets)

    def apply_edge_delta(self, batch) -> None:
        """Apply an :class:`~repro.graph.stream.EdgeBatch` in place.

        The streaming barrier: the assignment stays fixed while the
        graph's edge multiset changes. Scatter-subtracts the removed
        edges' block pairs and scatter-adds the added ones through the
        storage engine — O(|batch|), bit-identical to rebuilding from
        the mutated graph; see
        :func:`repro.sbm.incremental.apply_edge_delta`.
        """
        from repro.sbm.incremental import apply_edge_delta

        apply_edge_delta(self, batch)

    def merge_blocks(self, r: int, s: int) -> None:
        """Merge block ``r`` into block ``s`` in place (Alg. 1 apply step).

        Row/column ``r`` become empty; vertices of ``r`` are reassigned
        to ``s``. Call :meth:`compact` after the merge phase to drop the
        empty rows.
        """
        if r == s:
            raise BlockmodelError("cannot merge a block with itself")
        self.state.merge_into(r, s)
        self.d_out[s] += self.d_out[r]
        self.d_in[s] += self.d_in[r]
        self.d[s] += self.d[r]
        self.d_out[r] = 0
        self.d_in[r] = 0
        self.d[r] = 0
        self.assignment[self.assignment == r] = s

    def compact(self) -> IntArray:
        """Drop empty blocks and relabel densely; returns the old->new map.

        Entries for empty blocks map to -1.
        """
        occupied = np.bincount(self.assignment, minlength=self.num_blocks) > 0
        mapping = np.full(self.num_blocks, -1, dtype=np.int64)
        mapping[occupied] = np.arange(int(occupied.sum()), dtype=np.int64)
        keep = np.nonzero(occupied)[0]
        self.state = self.state.compact(keep, mapping)
        self.d_out = self.d_out[keep].copy()
        self.d_in = self.d_in[keep].copy()
        self.d = self.d[keep].copy()
        self.assignment = mapping[self.assignment]
        self.num_blocks = int(keep.shape[0])
        return mapping

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.state.total

    @property
    def num_nonempty_blocks(self) -> int:
        return int(np.count_nonzero(np.bincount(self.assignment, minlength=self.num_blocks)))

    def block_sizes(self) -> IntArray:
        return np.bincount(self.assignment, minlength=self.num_blocks)

    def mdl(self, graph: Graph) -> float:
        """Full description length (Eq. 2) of this state for ``graph``.

        The entropy kernel receives a *dense* matrix from either engine
        (:meth:`~repro.sbm.block_storage.BlockState.likelihood_matrix`)
        so numpy's pairwise summation walks identical operands and the
        MDL trace stays byte-equal across storages.
        """
        return description_length(
            graph.num_edges,
            graph.num_vertices,
            self.state.likelihood_matrix(),
            self.d_out,
            self.d_in,
            num_blocks=self.num_blocks,
        )

    def check_consistency(self, graph: Graph) -> None:
        """Raise :class:`BlockmodelError` unless state matches the graph.

        Used by tests and by drivers in debug mode; O(E + C^2).
        """
        expected = _count_block_edges(graph, self.assignment, self.num_blocks)
        if not np.array_equal(expected, self.state.to_dense()):
            raise BlockmodelError("B matrix inconsistent with assignment")
        if not np.array_equal(self.state.row_sums(), self.d_out):
            raise BlockmodelError("d_out inconsistent with B")
        if not np.array_equal(self.state.col_sums(), self.d_in):
            raise BlockmodelError("d_in inconsistent with B")
        if not np.array_equal(self.d, self.d_out + self.d_in):
            raise BlockmodelError("d inconsistent with d_out + d_in")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Blockmodel(C={self.num_blocks}, occupied={self.num_nonempty_blocks}, "
            f"E={self.num_edges}, storage={self.storage_name})"
        )


def _count_block_edges_state(
    graph: Graph,
    assignment: Assignment,
    num_blocks: int,
    storage_cls: type[BlockState],
) -> BlockState:
    """Count inter-block edges into a fresh storage engine."""
    if graph.num_edges:
        src_blocks = assignment[graph.edges[:, 0]]
        dst_blocks = assignment[graph.edges[:, 1]]
    else:
        src_blocks = np.empty(0, dtype=np.int64)
        dst_blocks = np.empty(0, dtype=np.int64)
    return storage_cls.from_edges(src_blocks, dst_blocks, num_blocks)


def _count_block_edges(graph: Graph, assignment: Assignment, num_blocks: int) -> np.ndarray:
    """Vectorized inter-block edge count: one pass over the edge list."""
    B = np.zeros((num_blocks, num_blocks), dtype=np.int64)
    if graph.num_edges:
        src_blocks = assignment[graph.edges[:, 0]]
        dst_blocks = assignment[graph.edges[:, 1]]
        np.add.at(B, (src_blocks, dst_blocks), 1)
    return B
