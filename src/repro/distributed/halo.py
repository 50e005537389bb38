"""Halo exchange — the point-to-point alternative to the allgather.

The prototype sweep (:mod:`repro.distributed.dsbp`) broadcasts *all*
accepted moves with one allgather, which is simple and optimal when most
moves are relevant to most ranks (the replicated-blockmodel layout needs
every move anyway for its rebuild).

A *partitioned*-blockmodel design — the direction a memory-constrained
deployment must take — only needs each rank to learn the new memberships
of its **ghost** vertices. This module implements that halo exchange:
each owner sends every neighbouring rank exactly the moved vertices that
rank ghosts, via point-to-point messages. The communication ledger then
quantifies the allgather-vs-halo volume tradeoff as a function of the
edge cut, which is the quantitative input the paper's future-work
question needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.distributed.comm import SimCommWorld
from repro.distributed.graphdist import DistributedGraph
from repro.types import IntArray

if TYPE_CHECKING:
    from repro.distributed.reliable import ReliableComm

__all__ = [
    "HaloPlan",
    "build_halo_plan",
    "halo_exchange_moves",
    "halo_exchange_frames",
]


@dataclass
class HaloPlan:
    """Precomputed send lists: which owned vertices each peer ghosts.

    ``sends[a][b]`` is the array of vertices owned by rank ``a`` that
    appear as ghosts on rank ``b`` (empty pairs omitted).
    """

    num_ranks: int
    sends: dict[int, dict[int, IntArray]]

    @property
    def total_send_slots(self) -> int:
        return sum(
            arr.shape[0]
            for per_peer in self.sends.values()
            for arr in per_peer.values()
        )

    def peers_of(self, rank: int) -> list[int]:
        return sorted(self.sends.get(rank, {}))


def build_halo_plan(dgraph: DistributedGraph) -> HaloPlan:
    """Invert the ghost tables into per-owner send lists."""
    sends: dict[int, dict[int, IntArray]] = {r: {} for r in range(dgraph.num_ranks)}
    for shard in dgraph.shards:
        if shard.ghosts.size == 0:
            continue
        owners = dgraph.owner[shard.ghosts]
        for owner_rank in np.unique(owners):
            owner_rank = int(owner_rank)
            ghosts_owned_there = shard.ghosts[owners == owner_rank]
            sends[owner_rank][shard.rank] = ghosts_owned_there.astype(np.int64)
    return HaloPlan(num_ranks=dgraph.num_ranks, sends=sends)


def halo_exchange_moves(
    world: SimCommWorld | ReliableComm,
    plan: HaloPlan,
    moves_by_rank: list[np.ndarray],
) -> list[np.ndarray]:
    """Deliver each rank the subset of moves affecting its ghosts.

    ``moves_by_rank[a]`` is rank a's local (vertex, new_block) array for
    the sweep. Returns, per rank, the concatenated remote moves it
    receives (its own moves excluded — it already knows them).

    ``world`` is any endpoint with ``send(payload, source, dest)`` and
    ``recv(source, dest)``. On a :class:`SimCommWorld` message costs are
    charged to its ledger and virtual clocks. On a
    :class:`~repro.distributed.reliable.ReliableComm` (any transport,
    optionally chaos-wrapped) the halo pattern inherits checksums,
    retransmission and dedupe; empty send lists still send, doubling as
    heartbeats for a supervisor layered on top.
    """
    if len(moves_by_rank) != plan.num_ranks:
        raise ValueError(
            f"need moves for {plan.num_ranks} ranks, got {len(moves_by_rank)}"
        )
    # Post sends: each owner filters its moved vertices per ghosting peer.
    for owner_rank, per_peer in plan.sends.items():
        moves = moves_by_rank[owner_rank]
        moved_vertices = moves[:, 0] if moves.size else np.empty(0, dtype=np.int64)
        for peer, ghosted in per_peer.items():
            if peer == owner_rank:
                continue
            if moves.size:
                relevant = moves[np.isin(moved_vertices, ghosted)]
            else:
                relevant = np.empty((0, 2), dtype=np.int64)
            world.send(relevant, source=owner_rank, dest=peer)

    # Drain receives in the mirrored order.
    received: list[list[np.ndarray]] = [[] for _ in range(plan.num_ranks)]
    for owner_rank, per_peer in plan.sends.items():
        for peer in per_peer:
            if peer == owner_rank:
                continue
            received[peer].append(world.recv(source=owner_rank, dest=peer))

    return [
        np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
        for parts in received
    ]


#: The same exchange over a reliable framed channel set (one body for
#: both endpoint kinds; the name is kept for callers).
halo_exchange_frames = halo_exchange_moves
