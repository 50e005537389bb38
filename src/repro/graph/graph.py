"""Immutable directed graph stored in compressed sparse row (CSR) form.

The SBP kernels touch three adjacency views per vertex very frequently:

* out-neighbours (edges ``v -> w``),
* in-neighbours (edges ``w -> v``),
* the concatenation of both ("incident" list, used by the neighbour-guided
  proposal of the GraphChallenge SBP lineage).

All three are precomputed once as CSR (pointer + index) arrays so the hot
loops only ever take zero-copy numpy views — the views-not-copies rule
from the HPC optimization guide matters here because proposals are drawn
millions of times per run.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import GraphValidationError
from repro.types import EdgeList, IntArray
from repro.utils.arrays import stable_argsort

__all__ = ["Graph"]


class Graph:
    """A directed, unweighted multigraph with vertices ``0..V-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``V``. Vertex ids must lie in ``[0, V)``.
    edges:
        Integer array of shape ``(E, 2)``; column 0 is the source and
        column 1 the target of each edge. Parallel edges and self-loops
        are permitted (the DCSBM is a multigraph model).

    Notes
    -----
    The graph is immutable after construction; all arrays are marked
    read-only so accidental mutation inside a kernel fails fast.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "edges",
        "out_ptr",
        "out_nbrs",
        "in_ptr",
        "in_nbrs",
        "inc_ptr",
        "inc_nbrs",
        "out_degree",
        "in_degree",
        "degree",
        "self_loops",
        "_digest",
    )

    def __init__(self, num_vertices: int, edges: EdgeList) -> None:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphValidationError(
                f"edges must have shape (E, 2), got {edges.shape}"
            )
        num_vertices = int(num_vertices)
        if num_vertices <= 0:
            raise GraphValidationError("graph must have at least one vertex")
        if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
            raise GraphValidationError(
                "edge endpoints must lie in [0, num_vertices)"
            )

        self.num_vertices: int = num_vertices
        self.num_edges: int = int(edges.shape[0])
        self.edges: EdgeList = edges
        self._digest: str | None = None  # computed lazily, graph is immutable

        src = edges[:, 0]
        dst = edges[:, 1]

        self.out_degree: IntArray = np.bincount(src, minlength=num_vertices)
        self.in_degree: IntArray = np.bincount(dst, minlength=num_vertices)
        self.degree: IntArray = self.out_degree + self.in_degree
        self.self_loops: IntArray = np.bincount(
            src[src == dst], minlength=num_vertices
        )

        self.out_ptr, self.out_nbrs = _build_csr(src, dst, num_vertices)
        self.in_ptr, self.in_nbrs = _build_csr(dst, src, num_vertices)
        self.inc_ptr, self.inc_nbrs = _build_incident_csr(
            self.out_ptr, self.out_nbrs, self.in_ptr, self.in_nbrs
        )

        for arr in (
            self.edges,
            self.out_ptr,
            self.out_nbrs,
            self.in_ptr,
            self.in_nbrs,
            self.inc_ptr,
            self.inc_nbrs,
            self.out_degree,
            self.in_degree,
            self.degree,
            self.self_loops,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Adjacency views (zero-copy)
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> IntArray:
        """Targets of edges leaving ``v`` (with multiplicity)."""
        return self.out_nbrs[self.out_ptr[v] : self.out_ptr[v + 1]]

    def in_neighbors(self, v: int) -> IntArray:
        """Sources of edges entering ``v`` (with multiplicity)."""
        return self.in_nbrs[self.in_ptr[v] : self.in_ptr[v + 1]]

    def incident_neighbors(self, v: int) -> IntArray:
        """Out-neighbours followed by in-neighbours of ``v``.

        Length equals ``degree[v]``; self-loops appear twice, matching
        their weight in the total degree.
        """
        return self.inc_nbrs[self.inc_ptr[v] : self.inc_ptr[v + 1]]

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(V={self.num_vertices}, E={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_vertices != other.num_vertices:
            return False
        # Compare canonical (sorted) edge multisets.
        return np.array_equal(
            _canonical_edges(self.edges, self.num_vertices),
            _canonical_edges(other.edges, other.num_vertices),
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges))

    def digest(self) -> str:
        """sha256 content address of ``(V, canonical edge multiset)``.

        Two graphs share a digest iff they are equal under :meth:`__eq__`:
        the edge list is canonicalized (lexicographically sorted) before
        hashing, so edge *order* never matters, while the vertex count is
        hashed explicitly, so isolated vertices always do. The digest is
        the graph half of a service job's content address (the config
        half is :func:`~repro.resilience.checkpoint.config_digest`).
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(np.int64(self.num_vertices).tobytes())
            canonical = _canonical_edges(self.edges, self.num_vertices)
            h.update(np.ascontiguousarray(canonical, dtype="<i8").tobytes())
            self._digest = h.hexdigest()
        return self._digest

    @property
    def density(self) -> float:
        """Edges per ordered vertex pair (self-pairs included)."""
        return self.num_edges / float(self.num_vertices) ** 2

    def reversed(self) -> "Graph":
        """The graph with every edge direction flipped."""
        return Graph(self.num_vertices, self.edges[:, ::-1].copy())

    def to_undirected_edges(self) -> EdgeList:
        """Edge list with each ordered pair canonicalized (u <= v)."""
        lo = np.minimum(self.edges[:, 0], self.edges[:, 1])
        hi = np.maximum(self.edges[:, 0], self.edges[:, 1])
        return np.stack([lo, hi], axis=1)


def _build_csr(
    key: IntArray, value: IntArray, num_vertices: int
) -> tuple[IntArray, IntArray]:
    """Group ``value`` by ``key`` into (ptr, indices) CSR arrays."""
    order = stable_argsort(key, num_vertices)
    counts = np.bincount(key, minlength=num_vertices)
    ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, value[order].astype(np.int64, copy=False)


def _build_incident_csr(
    out_ptr: IntArray,
    out_nbrs: IntArray,
    in_ptr: IntArray,
    in_nbrs: IntArray,
) -> tuple[IntArray, IntArray]:
    """Concatenate out- and in-adjacency into one CSR structure.

    Vertex ``v``'s slice holds its out-neighbours, then its in-neighbours:
    out entry ``j`` lands at ``ptr[v] + j - out_ptr[v]`` and in entry
    ``j`` at ``ptr[v] + out_deg[v] + j - in_ptr[v]``, so both lists
    scatter in one pass each.
    """
    num_vertices = out_ptr.shape[0] - 1
    out_counts = np.diff(out_ptr)
    in_counts = np.diff(in_ptr)
    ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(out_counts + in_counts, out=ptr[1:])
    nbrs = np.empty(int(ptr[-1]), dtype=np.int64)
    out_shift = np.repeat(ptr[:-1] - out_ptr[:-1], out_counts)
    nbrs[np.arange(out_nbrs.shape[0]) + out_shift] = out_nbrs
    in_shift = np.repeat(ptr[:-1] + out_counts - in_ptr[:-1], in_counts)
    nbrs[np.arange(in_nbrs.shape[0]) + in_shift] = in_nbrs
    return ptr, nbrs


def _canonical_edges(edges: EdgeList, num_vertices: int) -> EdgeList:
    """``edges`` sorted by (source, target): one sort on ``src * V + dst``."""
    keys = edges[:, 0] * num_vertices + edges[:, 1]
    return edges[stable_argsort(keys, num_vertices * num_vertices)]
