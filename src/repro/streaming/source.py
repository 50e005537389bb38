"""Stream sources: named producers of (initial graph, edge batches).

A stream source materializes an :class:`EdgeStream` — the initial
:class:`~repro.graph.graph.Graph` plus the ordered list of
:class:`~repro.graph.stream.EdgeBatch` mutations that advance it one
snapshot at a time. Two built-ins:

* ``synthetic-churn`` — a planted DCSBM graph whose edges churn at a
  configurable rate per snapshot: each batch removes a deterministic
  random fraction of the current edges and adds the same number of new
  edges drawn from the planted community structure, so the ground truth
  stays stable while the edge multiset turns over. All randomness is a
  pure function of ``(seed, snapshot index)`` via Philox streams — the
  benchmark's stream is reproducible bit-for-bit.
* ``edgelist-dir`` — a directory of edge-list files, lexicographically
  ordered, each a full snapshot; consecutive snapshots are diffed into
  add/remove batches (multiset semantics), with vertex growth carried
  through ``EdgeBatch.num_vertices``.

Sources register by name (the sampler-registry pattern) so
``repro stream --source`` and tests can select them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.generators import DCSBMParams, generate_dcsbm
from repro.graph.graph import Graph
from repro.graph.stream import EdgeBatch
from repro.types import Assignment
from repro.utils.registry import Registry
from repro.utils.rng import philox_stream

__all__ = [
    "EdgeStream",
    "StreamSourceSpec",
    "STREAM_SOURCES",
    "register_stream_source",
    "get_stream_source",
    "available_stream_sources",
    "synthetic_churn_stream",
    "edgelist_dir_stream",
]

#: Philox sub-stream tag for per-snapshot churn randomness.
_CHURN_TAG = 0x57BE


@dataclass(frozen=True)
class EdgeStream:
    """An initial graph plus the batches that advance it."""

    graph: Graph
    batches: list[EdgeBatch]
    #: planted ground truth of the *initial* graph when the source is
    #: synthetic (None for real data).
    truth: Assignment | None = None

    @property
    def num_snapshots(self) -> int:
        """Snapshots including the initial graph (batches + 1)."""
        return len(self.batches) + 1


@dataclass(frozen=True)
class StreamSourceSpec:
    """A named, registered stream source.

    ``build(**options)`` returns an :class:`EdgeStream`; options come
    from the CLI (``--source-option key=value``) or test code.
    """

    name: str
    summary: str
    build: Callable[..., EdgeStream]


STREAM_SOURCES: Registry[StreamSourceSpec] = Registry("stream source", ReproError)
get_stream_source = STREAM_SOURCES.get
available_stream_sources = STREAM_SOURCES.names


def register_stream_source(spec: StreamSourceSpec) -> None:
    """Register a source; its name becomes valid for ``repro stream``."""
    STREAM_SOURCES.register(spec.name, spec)


def synthetic_churn_stream(
    num_vertices: int = 1000,
    num_communities: int = 8,
    num_snapshots: int = 5,
    churn: float = 0.05,
    within_between_ratio: float = 5.0,
    mean_degree: float | None = None,
    seed: int = 0,
) -> EdgeStream:
    """A DCSBM graph churning ``churn`` of its edges per snapshot.

    Each batch removes ``round(churn * E)`` edges chosen uniformly from
    the current multiset and adds the same number of fresh edges drawn
    from the planted structure (source uniform; target within the
    source's community with probability ``ratio / (ratio + 1)``, else
    uniform among the rest), keeping E and the ground truth stable
    across the stream.
    """
    if not 0.0 < churn < 1.0:
        raise ReproError(f"churn must lie in (0, 1), got {churn}")
    if num_snapshots < 1:
        raise ReproError(f"num_snapshots must be >= 1, got {num_snapshots}")
    params = DCSBMParams(
        num_vertices=num_vertices,
        num_communities=num_communities,
        within_between_ratio=within_between_ratio,
        mean_degree=mean_degree,
    )
    graph, truth = generate_dcsbm(params, seed=seed)
    p_within = within_between_ratio / (within_between_ratio + 1.0)
    # Community c's members, ascending, are members[offsets[c]:][:sizes[c]].
    members = np.argsort(truth, kind="stable")
    sizes = np.bincount(truth, minlength=num_communities)
    offsets = np.cumsum(sizes) - sizes
    edges = graph.edges.copy()
    batches: list[EdgeBatch] = []
    for snap in range(1, num_snapshots):
        rng = philox_stream(seed, _CHURN_TAG, snap)
        k = max(1, int(round(churn * edges.shape[0])))
        removed_idx = rng.choice(edges.shape[0], size=k, replace=False)
        removed = edges[removed_idx]
        src = rng.integers(0, num_vertices, size=k)
        within = rng.random(k) < p_within
        # One bounded draw per edge, in edge order: the same Philox
        # consumption as one scalar ``integers`` call per edge.
        community = truth[src]
        dst = rng.integers(0, np.where(within, sizes[community], num_vertices))
        dst[within] = members[offsets[community[within]] + dst[within]]
        added = np.stack([src, dst], axis=1).astype(np.int64)
        batches.append(EdgeBatch(add=added, remove=removed))
        keep = np.ones(edges.shape[0], dtype=bool)
        keep[removed_idx] = False
        edges = np.concatenate([edges[keep], added], axis=0)
    return EdgeStream(graph=graph, batches=batches, truth=truth)


def _diff_edges(
    old: np.ndarray, new: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Multiset diff: (edges only in new, edges only in old)."""
    old_keys = old[:, 0] * width + old[:, 1]
    new_keys = new[:, 0] * width + new[:, 1]
    keys = np.concatenate([old_keys, new_keys])
    uniq, inverse = np.unique(keys, return_inverse=True)
    old_counts = np.bincount(inverse[: old_keys.shape[0]], minlength=uniq.shape[0])
    new_counts = np.bincount(inverse[old_keys.shape[0]:], minlength=uniq.shape[0])
    delta = new_counts - old_counts
    add_keys = np.repeat(uniq[delta > 0], delta[delta > 0])
    rem_keys = np.repeat(uniq[delta < 0], -delta[delta < 0])
    add = np.stack(divmod(add_keys, width), axis=1) if add_keys.size else np.empty((0, 2), np.int64)
    rem = np.stack(divmod(rem_keys, width), axis=1) if rem_keys.size else np.empty((0, 2), np.int64)
    return add.astype(np.int64), rem.astype(np.int64)


def edgelist_dir_stream(
    directory: str | Path, pattern: str = "*", **_: object
) -> EdgeStream:
    """Snapshots from a directory of edge-list files (sorted by name).

    Each file is a full snapshot in the two-column edge-list format of
    :func:`repro.graph.io.read_edge_list`; consecutive snapshots diff
    into add/remove batches. The vertex count only grows along the
    stream (a later snapshot may introduce new vertex ids, never drop
    the id space).
    """
    from repro.graph.io import read_edge_list

    directory = Path(directory)
    files = sorted(p for p in directory.glob(pattern) if p.is_file())
    if not files:
        raise ReproError(f"{directory}: no snapshot files match {pattern!r}")
    graphs = [read_edge_list(p) for p in files]
    initial = graphs[0]
    width = max(g.num_vertices for g in graphs)
    batches: list[EdgeBatch] = []
    prev = initial
    for g in graphs[1:]:
        if g.num_vertices < prev.num_vertices:
            raise ReproError(
                f"{directory}: snapshot vertex count shrank "
                f"({prev.num_vertices} -> {g.num_vertices})"
            )
        add, rem = _diff_edges(prev.edges, g.edges, width)
        grow = g.num_vertices if g.num_vertices > prev.num_vertices else None
        batches.append(EdgeBatch(add=add, remove=rem, num_vertices=grow))
        prev = g
    return EdgeStream(graph=initial, batches=batches)


register_stream_source(StreamSourceSpec(
    name="synthetic-churn",
    summary="planted DCSBM with a fixed per-snapshot edge churn rate",
    build=synthetic_churn_stream,
))
register_stream_source(StreamSourceSpec(
    name="edgelist-dir",
    summary="directory of edge-list files, one full snapshot per file",
    build=edgelist_dir_stream,
))
