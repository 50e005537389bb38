"""Fault-tolerant distributed execution backend (``--backend distributed:*``).

:class:`DistributedBackend` plugs the EDiSt-style replicated-blockmodel
layout (paper §3.1, ROADMAP item 2) into the ordinary execution-backend
registry: the sweep engine hands it a frozen blockmodel and a vertex
segment, ownership shards the segment across ``ranks``, every live rank
evaluates its owned share against the replica, and the results flow to
the supervisor (rank 0) as framed, checksummed, sequence-numbered delta
messages over a pluggable transport — ``sim``, ``inproc`` or ``pipes``.

Because asynchronous Gibbs decisions depend only on the frozen
sweep-start state and the pre-drawn per-vertex Philox rows (which the
engine lays out positionally, independent of execution layout), the
union of per-shard evaluations is byte-equal to the single-node sweep —
for any rank count, any transport, and any fault pattern the reliable
layer can mask.

Shard supervision rides the sweep barrier: every live rank reports every
sweep (an owned-vertex delta or an empty heartbeat), so a shard whose
channel exhausts its retry budget is *detected* exactly one barrier
late. Its vertices are then re-leased to the survivors — replication
makes that a pure ownership update — and the configured
``shard_loss_policy`` decides what happens to the sweep that lost it:

* ``recover`` — survivors re-evaluate the orphaned vertices from the
  same frozen state and Philox rows; the chain continues bit-identically
  (the default, and the property the resilience gate pins down);
* ``degrade`` — the orphaned proposals are recorded as rejections, the
  run's stop guard is tripped, and the driver returns the best-so-far
  result flagged ``interrupted=True``;
* ``fail`` — :class:`~repro.errors.ShardLost` propagates to the caller.
"""

from __future__ import annotations

import numpy as np

from repro.core.variants import SHARD_LOSS_POLICIES
from repro.distributed.chaos import ChaosSchedule, ChaosTransport
from repro.distributed.comm import CommLedger, Transport, get_transport
from repro.distributed.partition import partition_vertices
from repro.distributed.reliable import ReliableComm
from repro.errors import ChannelTimeout, ShardLost, TransportError
from repro.parallel.backend import ExecutionBackend, get_backend, register_backend
from repro.resilience.resilient import RetryPolicy
from repro.utils.log import get_logger

__all__ = ["SHARD_LOSS_POLICIES", "DistributedBackend"]

_log = get_logger("distributed.runtime")

#: Rank 0 is the supervisor: it drives the sweep, applies its own share
#: locally, and collects every other rank's delta at the barrier. Its
#: death is the driver process dying — the checkpoint layer's job, not
#: this one's — so failure schedules may not target it.
_SUPERVISOR = 0

_DEFAULT_RANKS = 2


class DistributedBackend(ExecutionBackend):
    """N-rank sharded sweep evaluation over a pluggable framed transport.

    Parameters
    ----------
    inner:
        Spec string ``"<transport>[:<ranks>]"`` (e.g. ``"pipes:4"``) —
        the remainder of a ``--backend distributed:<transport>:<ranks>``
        CLI spec. Overridden by the explicit keywords below.
    transport, ranks:
        Transport registry name and rank count (keyword alternative to
        ``inner``).
    shard_loss_policy:
        ``recover`` (default), ``degrade`` or ``fail`` — see the module
        docstring.
    partition_strategy:
        Vertex partitioner registry name (``degree_balanced`` default).
    chaos:
        Optional :class:`ChaosSchedule` (or mapping) injecting wire
        faults between the reliable layer and the transport.
    retry:
        Optional :class:`RetryPolicy` (or mapping) for per-message
        retransmission; the default allows 8 retries with a short poll.
    failures:
        Optional test schedule ``{sweep_call_index: [ranks]}``: the
        named ranks die silently during that ``evaluate_sweep`` call
        (they never report), exercising the supervision path.
    inner_backend:
        Per-shard evaluator backend name (``vectorized`` default; any
        non-wrapper registered backend works since all are bit-identical).
    transport_options:
        Extra keyword arguments for the transport factory.
    """

    name = "distributed"

    def __init__(
        self,
        inner: str | None = None,
        transport: str | None = None,
        ranks: int | None = None,
        shard_loss_policy: str = "recover",
        partition_strategy: str = "degree_balanced",
        chaos: ChaosSchedule | dict | None = None,
        retry: RetryPolicy | dict | None = None,
        failures: dict | None = None,
        inner_backend: str = "vectorized",
        transport_options: dict | None = None,
    ) -> None:
        spec_transport, spec_ranks = _parse_inner(inner)
        self.transport_name = transport or spec_transport or "sim"
        self.num_ranks = int(ranks if ranks is not None else spec_ranks)
        if self.num_ranks < 1:
            raise TransportError(f"ranks must be >= 1, got {self.num_ranks}")
        if shard_loss_policy not in SHARD_LOSS_POLICIES:
            raise TransportError(
                f"shard_loss_policy must be one of {SHARD_LOSS_POLICIES}, "
                f"got {shard_loss_policy!r}"
            )
        self.shard_loss_policy = shard_loss_policy
        self.partition_strategy = partition_strategy
        if "distributed" in inner_backend:
            raise TransportError("distributed backends cannot nest")
        self.inner = get_backend(inner_backend)

        raw: Transport = get_transport(
            self.transport_name, self.num_ranks, **(transport_options or {})
        )
        if isinstance(chaos, dict):
            chaos = ChaosSchedule.from_mapping(chaos)
        self.chaos: ChaosTransport | None = None
        if chaos is not None:
            self.chaos = ChaosTransport(raw, chaos)
            raw = self.chaos
        if isinstance(retry, dict):
            retry = RetryPolicy(**retry)
        self.comm = ReliableComm(raw, policy=retry)

        self.failures = _parse_failures(failures)
        if any(_SUPERVISOR in ranks_ for ranks_ in self.failures.values()):
            raise TransportError("supervisor rank 0 cannot be scheduled to die")

        self._dead: set[int] = set()
        self._owner: np.ndarray | None = None
        self._graph_key: tuple | None = None
        self._calls = 0
        self._stop_guard = None
        self.degraded = False
        self.shard_releases = 0
        self.vertices_released = 0

    # ------------------------------------------------------------------
    # Driver integration
    # ------------------------------------------------------------------
    def bind_stop_guard(self, stop) -> None:
        """Let the degrade policy stop the run between sweeps."""
        self._stop_guard = stop

    @property
    def ledger(self) -> CommLedger:
        return self.comm.ledger

    def comm_report(self) -> dict[str, object]:
        """Wire + supervision accounting for diagnostics and timings."""
        report: dict[str, object] = {
            "transport": self.transport_name,
            "ranks": self.num_ranks,
            "dead_ranks": sorted(self._dead),
            "shard_releases": self.shard_releases,
            "vertices_released": self.vertices_released,
            "degraded": self.degraded,
            "chaos_injected": dict(self.chaos.injected) if self.chaos else {},
        }
        report.update(self.ledger.as_row())
        return report

    # ------------------------------------------------------------------
    # Sweep evaluation
    # ------------------------------------------------------------------
    def evaluate_sweep(self, bm, graph, vertices, uniforms, beta):
        call = self._calls
        self._calls += 1
        owner = self._ownership(graph)
        vertices = np.asarray(vertices, dtype=np.int64)
        n = vertices.shape[0]
        accepted = np.zeros(n, dtype=bool)
        targets = np.asarray(bm.assignment[vertices], dtype=np.int64).copy()

        dying = {
            r for r in self.failures.get(call, ()) if r not in self._dead
        }
        live = [r for r in range(self.num_ranks) if r not in self._dead]
        vertex_owner = owner[vertices]
        positions = {
            rank: np.nonzero(vertex_owner == rank)[0] for rank in live
        }

        # Evaluation + report: every live rank sends every sweep (an
        # owned delta or an empty heartbeat); a dying rank sends nothing.
        for rank in live:
            if rank in dying:
                continue
            pos = positions[rank]
            acc, tgt = self._evaluate(bm, graph, vertices, uniforms, beta, pos)
            if rank == _SUPERVISOR:
                accepted[pos] = acc
                targets[pos] = tgt
            else:
                self.comm.send(
                    {"rank": rank, "call": call, "pos": pos,
                     "accepted": acc, "targets": tgt},
                    source=rank, dest=_SUPERVISOR,
                )

        # Barrier collection: the heartbeat contract turns an exhausted
        # channel into a death verdict.
        lost: list[int] = []
        for rank in live:
            if rank == _SUPERVISOR:
                continue
            try:
                message = self.comm.recv(source=rank, dest=_SUPERVISOR)
            except ChannelTimeout:
                lost.append(rank)
                continue
            self._check_message(message, rank, call)
            pos = message["pos"]
            accepted[pos] = message["accepted"]
            targets[pos] = message["targets"]

        if lost:
            self._handle_lost(
                lost, call, bm, graph, vertices, uniforms, beta,
                positions, accepted, targets,
            )
        return accepted, targets

    def _evaluate(self, bm, graph, vertices, uniforms, beta, pos):
        """Evaluate one shard's share of the segment.

        ``pos`` indexes into ``vertices``/``uniforms`` positionally, so
        the per-vertex Philox rows stay attached to their vertices no
        matter which rank (or which re-lease epoch) runs them.
        """
        return self.inner.evaluate_sweep(
            bm, graph, vertices[pos], uniforms[pos], beta
        )

    @staticmethod
    def _check_message(message: object, rank: int, call: int) -> None:
        if (
            not isinstance(message, dict)
            or message.get("rank") != rank
            or message.get("call") != call
        ):
            raise TransportError(
                f"rank {rank} sweep-call {call}: out-of-protocol message "
                f"{type(message).__name__}"
            )

    # ------------------------------------------------------------------
    # Shard supervision
    # ------------------------------------------------------------------
    def _handle_lost(
        self, lost, call, bm, graph, vertices, uniforms, beta,
        positions, accepted, targets,
    ) -> None:
        self._dead.update(lost)
        if self.shard_loss_policy == "fail":
            raise ShardLost(
                f"rank(s) {sorted(lost)} lost at sweep call {call} "
                "(shard_loss_policy=fail)"
            )
        _log.warning(
            "sweep call %d: rank(s) %s declared dead; re-leasing to survivors",
            call, sorted(lost),
        )
        orphan_pos = (
            np.concatenate([positions[r] for r in lost])
            if lost else np.empty(0, dtype=np.int64)
        )
        self._release(lost)
        if self.shard_loss_policy == "degrade":
            # Orphaned proposals stay rejections; flag and stop the run.
            self.degraded = True
            if self._stop_guard is not None:
                self._stop_guard.trigger(
                    f"shard(s) {sorted(lost)} lost; degrading to best-so-far"
                )
            return
        # recover: the new owners re-evaluate the orphans from the same
        # frozen state and Philox rows — bit-identical by construction.
        assert self._owner is not None
        new_owner = self._owner[vertices[orphan_pos]]
        for rank in np.unique(new_owner):
            rank = int(rank)
            pos = orphan_pos[new_owner == rank]
            acc, tgt = self._evaluate(bm, graph, vertices, uniforms, beta, pos)
            if rank == _SUPERVISOR:
                accepted[pos] = acc
                targets[pos] = tgt
                continue
            self.comm.send(
                {"rank": rank, "call": call, "pos": pos,
                 "accepted": acc, "targets": tgt},
                source=rank, dest=_SUPERVISOR,
            )
            message = self.comm.recv(source=rank, dest=_SUPERVISOR)
            self._check_message(message, rank, call)
            accepted[message["pos"]] = message["accepted"]
            targets[message["pos"]] = message["targets"]

    def _release(self, lost) -> None:
        """Re-lease every vertex owned by ``lost`` to the survivors."""
        assert self._owner is not None
        survivors = np.asarray(
            [r for r in range(self.num_ranks) if r not in self._dead],
            dtype=np.int64,
        )
        if survivors.size == 0:  # pragma: no cover - rank 0 never dies
            raise ShardLost("no survivors to re-lease to")
        orphans = np.nonzero(np.isin(self._owner, list(lost)))[0]
        if orphans.size:
            # Deterministic round-robin: re-lease depends only on the
            # ownership map and the sorted survivor set.
            self._owner[orphans] = survivors[np.arange(orphans.size) % survivors.size]
        self.shard_releases += len(lost)
        self.vertices_released += int(orphans.size)

    def _ownership(self, graph) -> np.ndarray:
        key = (id(graph), graph.num_vertices, graph.num_edges)
        if self._graph_key != key:
            self._graph_key = key
            self._owner = partition_vertices(
                graph, self.num_ranks, strategy=self.partition_strategy
            )
            if self._dead:
                self._release(set(self._dead))
        assert self._owner is not None
        return self._owner

    def close(self) -> None:
        self.inner.close()
        self.comm.close()


def _parse_inner(inner: str | None) -> tuple[str | None, int]:
    if inner is None:
        return None, _DEFAULT_RANKS
    name, _, count = str(inner).partition(":")
    if not count:
        return name or None, _DEFAULT_RANKS
    try:
        return name or None, int(count)
    except ValueError as exc:
        raise TransportError(
            f"bad distributed spec {inner!r}; expected '<transport>[:<ranks>]'"
        ) from exc


def _parse_failures(failures: dict | None) -> dict[int, tuple[int, ...]]:
    if not failures:
        return {}
    parsed: dict[int, tuple[int, ...]] = {}
    for call, ranks in failures.items():
        parsed[int(call)] = tuple(int(r) for r in ranks)
    return parsed


register_backend("distributed", DistributedBackend)
