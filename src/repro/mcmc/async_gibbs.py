"""Asynchronous-Gibbs sweep — the MCMC phase of A-SBP (paper Alg. 3).

All vertices are evaluated against a *frozen* snapshot of the blockmodel
(the "at most one iteration stale" distribution of §3.1). Accepted moves
are recorded in a membership vector only; the blockmodel is rebuilt once
at the end of the sweep. Because the evaluations are independent given
the frozen state, the evaluation stage is embarrassingly parallel — the
``backend`` argument decides how it is executed (serial loop, vectorized
batch, process pool, or simulated threads).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.graph.graph import Graph
from repro.sbm.blockmodel import Blockmodel
from repro.types import IntArray, SweepStats
from repro.utils.rng import SweepRandomness

__all__ = ["async_gibbs_sweep", "apply_frozen_barrier", "frozen_moves"]


def frozen_moves(
    bm: Blockmodel,
    vertices: IntArray,
    accepted: np.ndarray,
    targets: IntArray,
) -> tuple[IntArray, IntArray]:
    """Reduce frozen-state decisions to the moved set.

    Filters the accepted proposals down to vertices whose block actually
    changes — the delta the synchronization barrier must reconcile and
    the quantity ``barrier_moved`` counts. Shared by the engine's frozen
    segments and the distributed sweep (whose per-rank shards make the
    same reduction before the allgather).
    """
    moved = accepted & (targets != bm.assignment[vertices])
    return vertices[moved], targets[moved]


def apply_frozen_barrier(
    bm: Blockmodel,
    graph: Graph,
    moved_vertices: IntArray,
    moved_targets: IntArray,
    updater=None,
    rebuild_timer=None,
) -> None:
    """Reconcile ``bm`` with a frozen pass's moved set (the §3.1 barrier).

    ``updater`` is a :class:`~repro.parallel.backend.SweepUpdater`
    (``rebuild`` = O(E) recount, ``incremental`` = O(Σ deg(moved))
    delta-apply — both leave the blockmodel byte-equal); ``None`` means
    :class:`~repro.sbm.incremental.RebuildUpdater`. ``rebuild_timer``,
    when given, accrues the cost.
    """
    if updater is None:
        # Imported here: repro.sbm.incremental imports repro.parallel,
        # whose serial backend imports this package.
        from repro.sbm.incremental import RebuildUpdater

        updater = RebuildUpdater()
    with rebuild_timer.measure() if rebuild_timer is not None else nullcontext():
        updater.apply_sweep(bm, graph, moved_vertices, moved_targets)


def async_gibbs_sweep(
    bm: Blockmodel,
    graph: Graph,
    vertices: IntArray,
    randomness: SweepRandomness,
    beta: float,
    backend,
    record_work: bool = False,
    rebuild_timer=None,
    updater=None,
) -> SweepStats:
    """Run one asynchronous-Gibbs pass over ``vertices``, mutating ``bm``.

    ``backend`` must provide
    ``evaluate_sweep(bm, graph, vertices, uniforms, beta) -> (accepted, targets)``
    where ``accepted`` is a boolean array and ``targets`` the proposed
    block per vertex. The frozen-state semantics hold because the
    evaluation stage completes — against the un-mutated ``bm`` — before
    any update touches the blockmodel, so no defensive copy of the
    assignment vector is needed for that guarantee.

    ``rebuild_timer``, when given, accrues the per-sweep blockmodel
    reconciliation cost (the A-SBP barrier the paper discusses in §3.1)
    to the umbrella ``rebuild`` bucket, whichever engine pays it.

    ``updater`` reconciles the blockmodel with the moved set, as in
    :func:`apply_frozen_barrier` (``None`` = the O(E) recount).
    """
    if len(randomness) < len(vertices):
        raise ValueError(
            f"randomness table has {len(randomness)} rows for {len(vertices)} vertices"
        )
    uniforms = randomness.uniforms[: len(vertices)]
    accepted_mask, targets = backend.evaluate_sweep(bm, graph, vertices, uniforms, beta)

    moved_vertices, moved_targets = frozen_moves(bm, vertices, accepted_mask, targets)
    apply_frozen_barrier(
        bm, graph, moved_vertices, moved_targets,
        updater=updater, rebuild_timer=rebuild_timer,
    )

    work = None
    unit = graph.degree[vertices].astype(np.int64) + 1
    if record_work:
        work = unit
    return SweepStats(
        proposals=int(len(vertices)),
        accepted=int(len(moved_vertices)),
        serial_work=0.0,
        parallel_work=float(unit.sum()),
        barrier_moved=int(len(moved_vertices)),
        work_per_vertex=work,
    )
