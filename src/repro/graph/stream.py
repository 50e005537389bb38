"""Edge-stream primitives: batched mutations over the immutable Graph.

:class:`~repro.graph.graph.Graph` is deliberately immutable (its CSR
arrays are read-only so kernels can take zero-copy views), so a mutation
is expressed as a value — an :class:`EdgeBatch` of additions and
removals — and *applied*, producing a new ``Graph``:

    batch = EdgeBatch(add=[[0, 3]], remove=[[1, 2]])
    g2 = apply_edge_batch(g1, batch)

The application rule is deterministic so downstream bit-identity gates
hold: each removal deletes the *earliest* surviving occurrence of that
directed edge in the old edge list (multiset semantics — removing
``(u, v)`` twice needs two copies present, else
:class:`GraphValidationError`), surviving edges keep their original
order, and additions are appended in batch order. ``num_vertices`` may
only grow (streams add vertices, never renumber them).

The same batch drives the blockmodel side:
:meth:`repro.sbm.blockmodel.Blockmodel.apply_edge_delta` scatters the
batch's block-endpoint deltas through the storage engine's
``scatter_edges`` path instead of recounting every edge — see
:func:`repro.sbm.incremental.apply_edge_delta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphValidationError
from repro.graph.graph import Graph
from repro.types import EdgeList
from repro.utils.arrays import expand_ranges, stable_argsort

__all__ = ["EdgeBatch", "apply_edge_batch"]


def _coerce_edges(edges, label: str) -> EdgeList:
    arr = np.asarray(edges if edges is not None else (), dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError(
            f"{label} edges must have shape (E, 2), got {arr.shape}"
        )
    if arr.min() < 0:
        raise GraphValidationError(f"{label} edge endpoints must be >= 0")
    return arr


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of graph mutations: edges to add and edges to remove.

    Parameters
    ----------
    add, remove:
        Integer arrays of shape ``(E, 2)`` (source, target). Duplicates
        are meaningful — the graph is a multigraph, so adding ``(u, v)``
        twice inserts two parallel edges and removing it twice deletes
        two.
    num_vertices:
        Optional new vertex count; must be at least the old graph's
        (vertices are only ever added, never renumbered). ``None`` keeps
        the old count.
    """

    add: EdgeList = field(default_factory=lambda: np.empty((0, 2), np.int64))
    remove: EdgeList = field(default_factory=lambda: np.empty((0, 2), np.int64))
    num_vertices: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "add", _coerce_edges(self.add, "add"))
        object.__setattr__(self, "remove", _coerce_edges(self.remove, "remove"))
        if self.num_vertices is not None:
            nv = int(self.num_vertices)
            if nv <= 0:
                raise GraphValidationError("num_vertices must be positive")
            object.__setattr__(self, "num_vertices", nv)

    @property
    def is_empty(self) -> bool:
        return (
            self.add.shape[0] == 0
            and self.remove.shape[0] == 0
            and self.num_vertices is None
        )

    def normalized(self) -> "EdgeBatch":
        """Cancel add/remove pairs of the same directed edge (dedup rule).

        An edge both added and removed in one batch is a no-op; each
        such pair is cancelled with multiset semantics (two adds + one
        remove of ``(u, v)`` leave one net add). The relative order of
        the surviving entries is preserved, so a normalized batch applies
        identically to the original.
        """
        if self.add.shape[0] == 0 or self.remove.shape[0] == 0:
            return self
        width = int(
            max(self.add.max(initial=0), self.remove.max(initial=0))
        ) + 1
        add_keys = self.add[:, 0] * width + self.add[:, 1]
        rem_keys = self.remove[:, 0] * width + self.remove[:, 1]
        add_keep = _drop_earliest_matches(add_keys, rem_keys)
        rem_keep = _drop_earliest_matches(rem_keys, add_keys)
        if add_keep.all() and rem_keep.all():
            return self
        return EdgeBatch(
            add=self.add[add_keep],
            remove=self.remove[rem_keep],
            num_vertices=self.num_vertices,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grow = f", V->{self.num_vertices}" if self.num_vertices else ""
        return (
            f"EdgeBatch(+{self.add.shape[0]}, -{self.remove.shape[0]}{grow})"
        )


def _drop_earliest_matches(keys: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Keep-mask over ``keys`` after cancelling against ``other``.

    For each key appearing ``k`` times in ``other``, the earliest
    ``min(k, count)`` occurrences in ``keys`` are dropped.
    """
    keep = np.ones(keys.shape[0], dtype=bool)
    if keys.size == 0 or other.size == 0:
        return keep
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq, counts = np.unique(other, return_counts=True)
    lo = np.searchsorted(sorted_keys, uniq, side="left")
    hi = np.searchsorted(sorted_keys, uniq, side="right")
    take = np.minimum(counts, hi - lo)
    drop = expand_ranges(lo, take)
    keep[order[drop]] = False
    return keep


def apply_edge_batch(graph: Graph, batch: EdgeBatch) -> Graph:
    """Apply ``batch`` to ``graph``, returning a new :class:`Graph`.

    Deterministic application rule (see module doc): removals delete the
    earliest occurrences of each directed edge, survivors keep their
    original order, additions are appended in batch order. Raises
    :class:`GraphValidationError` when a removal references an edge (or
    any endpoint an addition references a vertex) that does not exist.
    """
    batch = batch.normalized()
    num_vertices = graph.num_vertices
    if batch.num_vertices is not None:
        if batch.num_vertices < num_vertices:
            raise GraphValidationError(
                f"num_vertices may only grow ({num_vertices} -> "
                f"{batch.num_vertices})"
            )
        num_vertices = batch.num_vertices
    if batch.add.size and batch.add.max() >= num_vertices:
        raise GraphValidationError(
            "added edge endpoints must lie in [0, num_vertices)"
        )
    if batch.remove.size and batch.remove.max() >= graph.num_vertices:
        raise GraphValidationError(
            "removed edge endpoints must lie in the old graph"
        )

    edges = graph.edges
    if batch.remove.shape[0]:
        width = num_vertices
        old_keys = edges[:, 0] * width + edges[:, 1]
        rem_keys = batch.remove[:, 0] * width + batch.remove[:, 1]
        order = stable_argsort(old_keys, width * width)
        sorted_keys = old_keys[order]
        uniq, counts = np.unique(rem_keys, return_counts=True)
        lo = np.searchsorted(sorted_keys, uniq, side="left")
        hi = np.searchsorted(sorted_keys, uniq, side="right")
        available = hi - lo
        short = counts > available
        if short.any():
            u, v = divmod(int(uniq[short][0]), width)
            raise GraphValidationError(
                f"cannot remove edge ({u}, {v}): "
                f"{int(counts[short][0])} requested, "
                f"{int(available[short][0])} present"
            )
        drop = expand_ranges(lo, counts)
        keep = np.ones(edges.shape[0], dtype=bool)
        keep[order[drop]] = False
        edges = edges[keep]
    if batch.add.shape[0]:
        edges = np.concatenate([edges, batch.add], axis=0)
    return Graph(num_vertices, edges.copy())
