"""Content-addressed result store: ``job_digest -> JobOutcome``.

The store is the service's cache discipline: a job's digest is a pure
function of (graph content, chain-determining config, mode, runs), and
every engine in the repo is bit-identical by construction, so a stored
outcome *is* the outcome of re-running the job. A cache hit therefore
loads a byte-equal result instead of re-running MCMC.

Two registered engines share one contract:

* ``disk`` — one JSON artifact per digest under a two-level fan-out
  (``ab/abcdef...json``), written through
  :func:`~repro.io.serialize.atomic_write` so a crash mid-put can never
  leave a truncated entry, with an LRU size-budget eviction policy
  (reads refresh recency via mtime);
* ``memory`` — the same serialized bytes held in a dict, for tests and
  in-process services.

Both serialize through the versioned result format
(:func:`~repro.io.serialize.result_payload` /
:func:`~repro.io.serialize.stream_payload`), so store entries survive
format growth exactly like plain result files do, and both count
hits / misses / puts / evictions for :func:`~repro.diagnostics.run_health`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ServiceError
from repro.io.serialize import (
    _RESULT_FORMAT_VERSION,
    _check_version,
    atomic_write,
    result_from_payload,
    result_payload,
    stream_from_payload,
    stream_payload,
)
from repro.utils.registry import Registry

__all__ = [
    "StoreStats",
    "ResultStore",
    "DiskResultStore",
    "MemoryResultStore",
    "RESULT_STORES",
    "register_result_store",
    "get_result_store",
    "available_result_stores",
]

_OUTCOME_FORMAT = "repro.job_outcome"


@dataclass
class StoreStats:
    """Cache accounting, surfaced through ``run_health`` and ``/health``."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def as_dict(self, entries: int, bytes_used: int) -> dict[str, int]:
        return {
            "entries": entries,
            "bytes": bytes_used,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }


def _encode_outcome(outcome) -> bytes:
    """Serialize a :class:`~repro.service.jobs.JobOutcome` to JSON bytes."""
    payload: dict = {
        "format": _OUTCOME_FORMAT,
        "version": _RESULT_FORMAT_VERSION,
        "digest": outcome.digest,
        "mode": outcome.mode,
        "runs": len(outcome.results),
        "results": [result_payload(r) for r in outcome.results],
        "stream": (
            stream_payload(outcome.stream) if outcome.stream is not None else None
        ),
    }
    return json.dumps(payload, indent=2).encode("utf-8")


def _decode_outcome(name: str, raw: bytes):
    """Inverse of :func:`_encode_outcome`; ``name`` labels decode errors."""
    from repro.errors import SerializationError
    from repro.service.jobs import JobOutcome

    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"{name}: corrupt store entry ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != _OUTCOME_FORMAT:
        raise SerializationError(f"{name}: not a {_OUTCOME_FORMAT} entry")
    _check_version(name, payload, _RESULT_FORMAT_VERSION)
    try:
        results = [result_from_payload(name, p) for p in payload["results"]]
        stream = (
            stream_from_payload(name, payload["stream"])
            if payload.get("stream") is not None
            else None
        )
        return JobOutcome(
            digest=str(payload["digest"]),
            mode=str(payload["mode"]),
            results=results,
            stream=stream,
            cache_hit=True,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{name}: malformed job outcome field ({exc!r})"
        ) from exc


class ResultStore:
    """Contract shared by the registered store engines.

    ``get`` returns a cached :class:`~repro.service.jobs.JobOutcome`
    (flagged ``cache_hit=True``) or ``None``; ``put`` persists one.
    Subclasses implement the byte-level ``_read`` / ``_write`` /
    ``_entries`` primitives; accounting and (de)serialization live here
    so every engine counts identically.
    """

    def __init__(self) -> None:
        self.stats = StoreStats()

    # -- byte-level primitives (engine-specific) -----------------------
    def _read(self, digest: str) -> bytes | None:
        raise NotImplementedError

    def _write(self, digest: str, raw: bytes) -> None:
        raise NotImplementedError

    def _entries(self) -> list[tuple[str, int]]:
        """(digest, size_bytes) of every stored entry."""
        raise NotImplementedError

    # -- contract ------------------------------------------------------
    def get(self, digest: str):
        raw = self._read(digest)
        if raw is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return _decode_outcome(f"store:{digest}", raw)

    def put(self, outcome) -> None:
        self._write(outcome.digest, _encode_outcome(outcome))
        self.stats.puts += 1

    def __contains__(self, digest: str) -> bool:
        return self._read(digest) is not None

    def digests(self) -> list[str]:
        return sorted(d for d, _ in self._entries())

    @property
    def bytes_used(self) -> int:
        return sum(size for _, size in self._entries())

    def health(self) -> dict[str, int]:
        entries = self._entries()
        return self.stats.as_dict(len(entries), sum(s for _, s in entries))


class DiskResultStore(ResultStore):
    """On-disk store: one atomic JSON artifact per digest, LRU eviction.

    Parameters
    ----------
    directory:
        Store root; created on first put. Entries live under a
        two-level fan-out (``ab/abcdef...json``) keyed by digest prefix.
    size_budget_bytes:
        Soft cap on total store size. After every put, least-recently-
        used entries (by mtime; reads refresh it) are evicted until the
        store fits — except the entry just written, which always
        survives. ``None`` disables eviction.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        size_budget_bytes: int | None = None,
    ) -> None:
        super().__init__()
        if size_budget_bytes is not None and size_budget_bytes <= 0:
            raise ServiceError(
                f"size_budget_bytes must be positive, got {size_budget_bytes}"
            )
        self.directory = Path(directory)
        self.size_budget_bytes = size_budget_bytes

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.json"

    def _read(self, digest: str) -> bytes | None:
        path = self._path(digest)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        os.utime(path)  # refresh LRU recency
        return raw

    def _write(self, digest: str, raw: bytes) -> None:
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path, mode="wb") as fh:
            fh.write(raw)
        self._evict(keep=digest)

    def _entries(self) -> list[tuple[str, int]]:
        if not self.directory.is_dir():
            return []
        out = []
        for path in self.directory.glob("??/*.json"):
            try:
                out.append((path.stem, path.stat().st_size))
            except FileNotFoundError:  # pragma: no cover - concurrent evict
                continue
        return out

    def _evict(self, keep: str) -> None:
        if self.size_budget_bytes is None:
            return
        stat_rows = []
        for path in self.directory.glob("??/*.json"):
            try:
                st = path.stat()
            except FileNotFoundError:  # pragma: no cover - concurrent evict
                continue
            stat_rows.append((st.st_mtime_ns, path.stat().st_size, path))
        total = sum(size for _, size, _ in stat_rows)
        for _, size, path in sorted(stat_rows, key=lambda row: row[0]):
            if total <= self.size_budget_bytes:
                break
            if path.stem == keep:
                continue  # the entry just written always survives
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent evict
                continue
            total -= size
            self.stats.evictions += 1


class MemoryResultStore(ResultStore):
    """In-process store holding serialized bytes (tests, inproc services).

    Keeping *bytes* rather than live objects preserves the disk store's
    contract exactly: a hit deserializes through the same versioned
    format, so byte-equality of cached results is engine-independent.
    """

    def __init__(self, size_budget_bytes: int | None = None) -> None:
        super().__init__()
        self.size_budget_bytes = size_budget_bytes
        self._data: dict[str, bytes] = {}  # insertion/access-ordered = LRU

    def _read(self, digest: str) -> bytes | None:
        raw = self._data.get(digest)
        if raw is not None:
            self._data[digest] = self._data.pop(digest)  # refresh recency
        return raw

    def _write(self, digest: str, raw: bytes) -> None:
        self._data.pop(digest, None)
        self._data[digest] = raw
        if self.size_budget_bytes is None:
            return
        while (
            sum(len(b) for b in self._data.values()) > self.size_budget_bytes
            and len(self._data) > 1
        ):
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.stats.evictions += 1

    def _entries(self) -> list[tuple[str, int]]:
        return [(d, len(raw)) for d, raw in self._data.items()]


# ----------------------------------------------------------------------
# Registry (the pluggable-engine pattern shared by the whole repo)
# ----------------------------------------------------------------------
RESULT_STORES: Registry[Callable[..., ResultStore]] = Registry(
    "result store", ServiceError
)
register_result_store = RESULT_STORES.register
get_result_store = RESULT_STORES.get
available_result_stores = RESULT_STORES.names

register_result_store("disk", DiskResultStore)
register_result_store("memory", MemoryResultStore)
