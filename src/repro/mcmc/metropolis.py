"""Serial Metropolis-Hastings sweep — the MCMC phase of classic SBP.

Paper Alg. 2: vertices are visited one at a time; every accepted move
updates the blockmodel *in place*, so each subsequent proposal sees the
fully up-to-date state. This is the inherently serial chain the paper
sets out to parallelize.

The chain is replayed in windows. A rejected proposal writes nothing to
the state, so scoring ``WINDOW`` consecutive vertices against the live
blockmodel with the batch kernel gives exactly the serial decisions up
to and including the window's first accepted move. That move is
committed and the next window starts at the vertex after it — the
prefix case of the local filter in the Distributed Metropolis Sampler
(Feng/Hayes/Yin, arXiv:1904.00943). Uniform row ``i`` still drives
vertex ``i``, so the chain is byte-identical to the per-vertex loop
over :func:`~repro.mcmc.evaluate.evaluate_vertex`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.vectorized import VectorizedBackend
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.delta import vertex_move_context
from repro.types import IntArray, SweepStats
from repro.utils.rng import SweepRandomness

__all__ = ["WINDOW", "metropolis_sweep"]

#: Vertices scored per batch-kernel call. On a 2-core container, cold
#: SBP/H-SBP fits at 48, 64 and 96 finish within 3% of each other and 16
#: is about 20% slower, since every call pays the kernel's fixed cost.
WINDOW = 64

#: The batch kernel is stateless; windows never leave the process.
_KERNEL = VectorizedBackend()


def metropolis_sweep(
    bm: Blockmodel,
    graph: Graph,
    vertices: IntArray,
    randomness: SweepRandomness,
    beta: float,
    record_work: bool = False,
) -> SweepStats:
    """Run one serial MH pass over ``vertices``, mutating ``bm``.

    Returns sweep statistics; ``delta_mdl`` is left at 0 here (the phase
    driver tracks full MDL between sweeps, which also captures the model
    complexity terms). ``work_per_vertex`` charges each vertex its
    degree + 1, whichever window scored it.
    """
    if len(randomness) < len(vertices):
        raise ValueError(
            f"randomness table has {len(randomness)} rows for {len(vertices)} vertices"
        )
    vertices = np.asarray(vertices, dtype=np.int64)
    uniforms = randomness.uniforms
    count = vertices.shape[0]
    accepted = 0
    start = 0
    while start < count:
        stop = min(start + WINDOW, count)
        window = vertices[start:stop]
        window_accepted, targets = _KERNEL.evaluate_sweep(
            bm, graph, window, uniforms[start:stop], beta
        )
        hits = np.flatnonzero(window_accepted)
        if hits.size == 0:
            start = stop
            continue
        first = int(hits[0])
        v = int(window[first])
        ctx = vertex_move_context(bm, graph, v)
        bm.apply_move(
            v,
            int(targets[first]),
            ctx.t_out,
            ctx.c_out,
            ctx.t_in,
            ctx.c_in,
            ctx.loops,
            ctx.deg_out,
            ctx.deg_in,
        )
        accepted += 1
        start += first + 1
    unit = graph.degree[vertices].astype(np.int64) + 1
    return SweepStats(
        proposals=count,
        accepted=accepted,
        serial_work=float(unit.sum()),
        parallel_work=0.0,
        work_per_vertex=unit if record_work else None,
    )
