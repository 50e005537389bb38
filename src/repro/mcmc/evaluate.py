"""Single-vertex proposal evaluation — the shared inner kernel.

Every variant (serial MH, async Gibbs, hybrid) evaluates a vertex the
same way: build the neighbour-block context, propose a block, compute
the delta-MDL and Hastings correction, and draw the accept decision. The
variants differ only in *which state* the evaluation reads (live vs
frozen) and *when* accepted moves are applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.delta import (
    VertexMoveContext,
    hastings_correction,
    vertex_move_context,
    vertex_move_delta,
)
from repro.sbm.moves import accept_probability, propose_vertex_move

__all__ = ["VertexDecision", "evaluate_vertex"]


@dataclass
class VertexDecision:
    """Outcome of evaluating one vertex proposal."""

    v: int
    source: int
    target: int
    accepted: bool
    delta_s: float
    context: VertexMoveContext | None

    @property
    def is_move(self) -> bool:
        return self.accepted and self.target != self.source


def evaluate_vertex(
    bm: Blockmodel,
    graph: Graph,
    v: int,
    uniforms: np.ndarray,
    beta: float,
) -> VertexDecision:
    """Propose and (virtually) accept/reject a move for vertex ``v``.

    Reads but never mutates ``bm``; callers decide whether/when to apply
    the move. ``uniforms`` is the 5-uniform row reserved for ``v`` this
    sweep. This is the per-vertex oracle the batch kernel
    (:class:`~repro.parallel.vectorized.VectorizedBackend`) must match.
    """
    ctx = vertex_move_context(bm, graph, v)
    s = propose_vertex_move(bm, graph, v, uniforms)
    if s == ctx.r:
        return VertexDecision(
            v=v, source=ctx.r, target=s, accepted=False, delta_s=0.0, context=ctx
        )
    delta_s = vertex_move_delta(bm, ctx, s)
    hastings = hastings_correction(bm, ctx, s)
    p = accept_probability(delta_s, hastings, beta)
    accepted = bool(uniforms[4] < p)
    return VertexDecision(
        v=v, source=ctx.r, target=s, accepted=accepted, delta_s=delta_s, context=ctx
    )
