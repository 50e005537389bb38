"""Message-passing primitives for distributed SBP.

Two layers live here. The *simulated world* (:class:`SimCommWorld`)
mirrors the mpi4py surface the design would use on a real cluster
(send/recv, broadcast, allgather, allreduce, barrier), executed inside
one process: every rank owns a virtual clock, point-to-point messages
carry payload bytes, and collectives are charged with the standard
log2(P) tree model

    T_collective = ceil(log2 P) * (latency + bytes / bandwidth).

The ledger (message counts, bytes by operation) is what the distributed
SBP bench reports; the virtual clocks drive the modeled scaling curves.

The *wire layer* is the :class:`Transport` protocol: one-way framed byte
channels between ranks, behind a registry (``sim`` here — frames riding
the virtual-clock world — plus ``inproc`` and ``pipes`` in
:mod:`repro.distributed.wire`). Every frame is length-prefixed and
CRC32-checksummed (:func:`encode_frame`/:func:`decode_frame`) so a
truncated or bit-flipped delta is *detected* and quarantined, never
silently applied to a replica. Reliability (retry, dedupe, reordering)
is layered on top by :mod:`repro.distributed.reliable`.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import struct
import zlib
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import BackendError, FrameError, TransportError
from repro.utils.registry import Registry

__all__ = [
    "CommSpec",
    "CommLedger",
    "SimCommWorld",
    "FRAME_MAGIC",
    "FRAME_HEADER_BYTES",
    "encode_payload",
    "decode_payload",
    "encode_frame",
    "decode_frame",
    "Transport",
    "SimTransport",
    "TRANSPORTS",
    "register_transport",
    "get_transport",
    "available_transports",
]


@dataclass(frozen=True)
class CommSpec:
    """Network parameters of the simulated cluster.

    Defaults approximate a commodity 100 Gb/s fabric: 2 microseconds
    one-way latency, 12.5 GB/s effective per-rank bandwidth.
    """

    latency_seconds: float = 2e-6
    bandwidth_bytes_per_second: float = 12.5e9

    def transfer_seconds(self, num_bytes: int) -> float:
        return self.latency_seconds + num_bytes / self.bandwidth_bytes_per_second

    def collective_seconds(self, num_ranks: int, num_bytes: int) -> float:
        if num_ranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(num_ranks))
        return rounds * self.transfer_seconds(num_bytes)


@dataclass
class CommLedger:
    """Accumulated communication accounting for one world or channel set.

    ``retries`` counts frame retransmissions (each also re-charged to
    the byte counters — retransmitted bytes really cross the wire) and
    ``frames_quarantined`` counts received frames that failed structural
    or CRC validation and were discarded instead of applied.
    """

    point_to_point_messages: int = 0
    point_to_point_bytes: int = 0
    collective_calls: int = 0
    collective_bytes: int = 0
    retries: int = 0
    frames_quarantined: int = 0

    @property
    def total_bytes(self) -> int:
        return self.point_to_point_bytes + self.collective_bytes

    def as_row(self) -> dict[str, int]:
        return {
            "p2p_messages": self.point_to_point_messages,
            "p2p_bytes": self.point_to_point_bytes,
            "collective_calls": self.collective_calls,
            "collective_bytes": self.collective_bytes,
            "total_bytes": self.total_bytes,
            "retries": self.retries,
            "frames_quarantined": self.frames_quarantined,
        }


def _payload_bytes(payload: object) -> int:
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, bool, np.integer, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple)):
        return sum(_payload_bytes(x) for x in payload)
    if isinstance(payload, dict):
        return sum(
            _payload_bytes(k) + _payload_bytes(v) for k, v in payload.items()
        )
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return sum(
            _payload_bytes(getattr(payload, f.name))
            for f in dataclasses.fields(payload)
        )
    if payload is None:
        return 0
    # fall back to a conservative struct estimate
    return 64


class SimCommWorld:
    """A fixed-size communicator of simulated ranks.

    Rank code runs round-robin inside the caller's process; the world
    tracks one virtual clock per rank and advances them according to the
    compute time each rank reports (:meth:`advance_compute`) and the
    modeled cost of every communication call.
    """

    def __init__(self, num_ranks: int, spec: CommSpec | None = None) -> None:
        if num_ranks < 1:
            raise BackendError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks
        self.spec = spec or CommSpec()
        self.ledger = CommLedger()
        self._clocks = np.zeros(num_ranks, dtype=np.float64)
        self._queues: dict[tuple[int, int], deque] = {}

    # ------------------------------------------------------------------
    # Virtual time
    # ------------------------------------------------------------------
    def advance_compute(self, rank: int, seconds: float) -> None:
        """Charge ``seconds`` of local computation to ``rank``'s clock."""
        if seconds < 0:
            raise ValueError("compute time cannot be negative")
        self._clocks[self._check_rank(rank)] += seconds

    def clock(self, rank: int) -> float:
        return float(self._clocks[self._check_rank(rank)])

    @property
    def makespan(self) -> float:
        """The slowest rank's clock — the simulated wall-clock."""
        return float(self._clocks.max())

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, payload: object, source: int, dest: int) -> None:
        """Queue a message; cost charged to the sender's clock."""
        source = self._check_rank(source)
        dest = self._check_rank(dest)
        if source == dest:
            raise BackendError("send to self; use local state instead")
        nbytes = _payload_bytes(payload)
        self.ledger.point_to_point_messages += 1
        self.ledger.point_to_point_bytes += nbytes
        self._clocks[source] += self.spec.transfer_seconds(nbytes)
        self._queues.setdefault((source, dest), deque()).append(
            (payload, float(self._clocks[source]))
        )

    def recv(self, source: int, dest: int) -> object:
        """Dequeue the next message; receiver waits for its arrival."""
        source = self._check_rank(source)
        dest = self._check_rank(dest)
        queue = self._queues.get((source, dest))
        if not queue:
            raise BackendError(f"no message pending from rank {source} to {dest}")
        payload, arrival = queue.popleft()
        self._clocks[dest] = max(float(self._clocks[dest]), arrival)
        return payload

    def pending(self, source: int, dest: int) -> bool:
        """True when a message from ``source`` awaits ``dest``."""
        return bool(
            self._queues.get((self._check_rank(source), self._check_rank(dest)))
        )

    # ------------------------------------------------------------------
    # Collectives (synchronizing: all clocks meet, then pay tree cost)
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        self._synchronize(0)

    def broadcast(self, payload: object, root: int) -> list[object]:
        """Every rank receives ``payload`` from ``root``."""
        self._check_rank(root)
        self._synchronize(_payload_bytes(payload))
        return [payload for _ in range(self.num_ranks)]

    def allgather(self, contributions: list[object]) -> list[object]:
        """Each rank contributes one item; all ranks get the full list."""
        if len(contributions) != self.num_ranks:
            raise BackendError(
                f"allgather needs {self.num_ranks} contributions, "
                f"got {len(contributions)}"
            )
        nbytes = sum(_payload_bytes(c) for c in contributions)
        self._synchronize(nbytes)
        return list(contributions)

    def allreduce_sum(self, values: list[float]) -> float:
        """Sum-reduce one scalar per rank; all ranks get the total."""
        if len(values) != self.num_ranks:
            raise BackendError(
                f"allreduce needs {self.num_ranks} values, got {len(values)}"
            )
        self._synchronize(8)
        return float(sum(values))

    # ------------------------------------------------------------------
    def _synchronize(self, nbytes: int) -> None:
        self.ledger.collective_calls += 1
        self.ledger.collective_bytes += nbytes
        meet = self.makespan
        cost = self.spec.collective_seconds(self.num_ranks, nbytes)
        self._clocks[:] = meet + cost

    def _check_rank(self, rank: int) -> int:
        rank = int(rank)
        if not 0 <= rank < self.num_ranks:
            raise BackendError(
                f"rank {rank} out of range [0, {self.num_ranks})"
            )
        return rank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimCommWorld(ranks={self.num_ranks}, makespan={self.makespan:.3g}s)"


# ----------------------------------------------------------------------
# Wire frames
# ----------------------------------------------------------------------
#: Frame header magic ("SBPF" little-endian) — rejects foreign byte blobs.
FRAME_MAGIC = 0x46504253

#: Header layout: (magic u32, seq u64, payload_len u64, crc32 u32).
#: The CRC covers the seq and length words *and* the payload, so a bit
#: flip anywhere except the magic itself is caught (a flipped magic is
#: caught by the magic check).
_HEADER = struct.Struct("<IQQI")
FRAME_HEADER_BYTES = _HEADER.size


def encode_payload(obj: object) -> bytes:
    """Pickle a message payload for the wire (protocol 4, self-contained)."""
    return pickle.dumps(obj, protocol=4)


def decode_payload(data: bytes) -> object:
    """Unpickle a wire payload; wraps decode failures in FrameError."""
    try:
        return pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 - decode is a fault barrier
        raise FrameError(f"payload decode failed: {exc!r}") from exc


def _frame_crc(seq: int, payload: bytes) -> int:
    crc = zlib.crc32(struct.pack("<QQ", seq, len(payload)))
    return zlib.crc32(payload, crc) & 0xFFFF_FFFF


def encode_frame(seq: int, payload: bytes) -> bytes:
    """Wrap ``payload`` in a checksummed, length-prefixed wire frame."""
    if seq < 0:
        raise TransportError(f"frame seq must be >= 0, got {seq}")
    header = _HEADER.pack(FRAME_MAGIC, seq, len(payload), _frame_crc(seq, payload))
    return header + payload


def decode_frame(raw: bytes) -> tuple[int, bytes]:
    """Validate a wire frame; return ``(seq, payload)``.

    Raises :class:`~repro.errors.FrameError` on truncation, bad magic,
    length mismatch, or checksum mismatch — the caller quarantines the
    frame and relies on retransmission.
    """
    if len(raw) < FRAME_HEADER_BYTES:
        raise FrameError(
            f"frame truncated: {len(raw)} bytes < {FRAME_HEADER_BYTES}-byte header"
        )
    magic, seq, length, crc = _HEADER.unpack_from(raw)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:08x}")
    payload = raw[FRAME_HEADER_BYTES:]
    if len(payload) != length:
        raise FrameError(
            f"frame length mismatch: header says {length}, got {len(payload)}"
        )
    if _frame_crc(seq, payload) != crc:
        raise FrameError(f"frame CRC mismatch (seq {seq})")
    return int(seq), payload


# ----------------------------------------------------------------------
# Transport protocol + registry
# ----------------------------------------------------------------------
class Transport(ABC):
    """One-way framed byte channels between ranks.

    The contract is deliberately lossy-friendly: ``push`` enqueues an
    opaque frame on the (source, dest) channel and ``pull`` returns the
    next frame or ``None`` when nothing has arrived — transports never
    block indefinitely and never interpret frame contents. Ordering is
    FIFO per channel on the honest transports; the fault wrapper
    (:class:`~repro.distributed.chaos.ChaosTransport`) may drop,
    duplicate, reorder or corrupt frames, which is exactly what the
    reliable layer (:class:`~repro.distributed.reliable.ReliableComm`)
    exists to mask.
    """

    name: str = "abstract"

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise TransportError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks

    @abstractmethod
    def push(self, frame: bytes, source: int, dest: int) -> None:
        """Enqueue ``frame`` on the (source, dest) channel."""

    @abstractmethod
    def pull(self, source: int, dest: int, timeout: float = 0.0) -> bytes | None:
        """Dequeue the next frame, or ``None`` if none arrives in time.

        ``timeout`` is a best-effort wait in seconds for in-flight
        frames (0 = non-blocking); the simulated transport delivers
        instantly and ignores it.
        """

    def close(self) -> None:
        """Release channel resources; idempotent."""

    def _check_pair(self, source: int, dest: int) -> tuple[int, int]:
        source, dest = int(source), int(dest)
        for rank in (source, dest):
            if not 0 <= rank < self.num_ranks:
                raise TransportError(
                    f"rank {rank} out of range [0, {self.num_ranks})"
                )
        if source == dest:
            raise TransportError("self-channels are not allowed; use local state")
        return source, dest

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SimTransport(Transport):
    """Frames riding the virtual-clock world — zero OS resources.

    The deterministic default: delivery is instantaneous (a ``push`` is
    ``pull``-able immediately) and every byte is still charged to the
    :class:`SimCommWorld` clocks and ledger, so modeled scaling numbers
    keep working when the sweep runs over the framed wire.
    """

    name = "sim"

    def __init__(self, num_ranks: int, spec: CommSpec | None = None) -> None:
        super().__init__(num_ranks)
        self.world = SimCommWorld(num_ranks, spec)

    def push(self, frame: bytes, source: int, dest: int) -> None:
        source, dest = self._check_pair(source, dest)
        self.world.send(frame, source, dest)

    def pull(self, source: int, dest: int, timeout: float = 0.0) -> bytes | None:
        source, dest = self._check_pair(source, dest)
        if not self.world.pending(source, dest):
            return None
        frame = self.world.recv(source, dest)
        assert isinstance(frame, bytes)
        return frame


#: ``sim`` registers below; the OS-backed wires live in (and register
#: from) :mod:`repro.distributed.wire`, imported on first lookup.
TRANSPORTS: Registry[Callable[..., Transport]] = Registry(
    "transport", TransportError, builtins=("repro.distributed.wire",)
)
register_transport = TRANSPORTS.register
available_transports = TRANSPORTS.names


def get_transport(name: str, num_ranks: int, **kwargs) -> Transport:
    """Instantiate a transport by name: 'sim', 'inproc' or 'pipes'."""
    return TRANSPORTS.get(name)(num_ranks=num_ranks, **kwargs)


register_transport("sim", SimTransport)
