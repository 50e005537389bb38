"""Block-merge phase (paper Alg. 1).

For every block, a handful of merge candidates are proposed and the best
(lowest delta-MDL) is kept; candidates are evaluated against the
*unmodified* blockmodel ("embarrassingly parallel until the sort"), then
the globally best merges are applied greedily — following merge chains
with a union-find — until the block count reaches the target.

The candidate scan is delegated to a :class:`~repro.parallel.backend.
MergeBackend` selected by ``config.merge_backend``: the serial oracle
loop or the vectorized batch kernel (bit-identical decisions — see
:mod:`repro.parallel.merge`).
"""

from __future__ import annotations

import numpy as np

from repro.core.variants import SBPConfig
from repro.graph.graph import Graph
from repro.parallel.backend import get_merge_backend
from repro.sbm.blockmodel import Blockmodel
from repro.utils.rng import philox_stream
from repro.utils.timer import StopwatchPool

__all__ = ["block_merge_phase", "MERGE_PHASE_TAG"]

#: RNG phase-tag stride reserved for merge phases (see core.sbp tags).
MERGE_PHASE_TAG = 0


def block_merge_phase(
    bm: Blockmodel,
    graph: Graph,
    num_merges: int,
    config: SBPConfig,
    iteration: int,
    timers: StopwatchPool | None = None,
    storage: str | None = None,
) -> Blockmodel:
    """Return a new compacted blockmodel with ``num_merges`` fewer blocks.

    ``bm`` is not modified. Proposals draw from a Philox stream keyed by
    ``(seed, merge-tag, iteration)`` so runs are reproducible; the draw
    layout is identical for every merge backend. When ``timers`` is
    given, the parallelizable candidate scan and the sequential apply
    step are accrued separately (``merge_scan`` / ``merge_apply``) for
    Fig.-2-style breakdowns. The output is built on ``storage``
    (default ``config.block_storage``); ``auto`` resolves at the
    output's block count.
    """
    C = bm.num_blocks
    num_merges = min(num_merges, C - 1)
    if num_merges <= 0:
        return bm.copy()

    proposals = config.merge_proposals_per_block
    rng = philox_stream(config.seed, MERGE_PHASE_TAG, iteration)
    uniforms = rng.random((C, proposals, 4))

    timers = timers if timers is not None else StopwatchPool()
    backend = get_merge_backend(config.merge_backend)
    with timers.section("merge_scan"):
        best_delta, best_target = backend.evaluate_merges(bm, uniforms)

    with timers.section("merge_apply"):
        order = np.argsort(best_delta, kind="stable")
        parent = np.arange(C, dtype=np.int64)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = int(parent[root])
            # path compression
            while parent[x] != root:
                parent[x], x = root, int(parent[x])
            return root

        merged = 0
        for r in order:
            if merged >= num_merges:
                break
            target = int(best_target[r])
            if target < 0:
                continue
            root = find(target)
            if root == r:
                continue  # applying this (stale) merge would create a cycle
            parent[r] = root
            merged += 1

        roots = np.fromiter((find(b) for b in range(C)), dtype=np.int64, count=C)
        merged_assignment = roots[bm.assignment]
        # Relabel densely; from_assignment rebuilds B in one vectorized pass.
        _, dense = np.unique(merged_assignment, return_inverse=True)
        out = Blockmodel.from_assignment(
            graph, dense.astype(np.int64), storage=storage or config.block_storage
        )
    return out
