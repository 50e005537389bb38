"""Save/load inference artifacts.

Three formats, chosen for the artifact's shape:

* **results** — JSON with the assignment embedded (human-inspectable,
  diff-able, version-tagged);
* **assignments** — ``vertex community`` text lines, interoperable with
  the CLI and with common community-detection tooling;
* **blockmodels** — compressed ``.npz`` (the B matrix is a dense array).

All writers are crash-safe: content is written to a temporary file in
the target directory and atomically :func:`os.replace`-d into place, so
a crash mid-write can never leave a truncated artifact under the final
name. All loaders translate low-level decode failures (truncated JSON,
bad zip members, missing fields, unknown format versions) into
:class:`~repro.errors.SerializationError` naming the offending path.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import MISSING, Field, fields, is_dataclass
from functools import cache
from typing import Iterator, get_type_hints

import numpy as np

from repro.core.results import SBPResult
from repro.errors import BackendError, ReproError, SerializationError
from repro.sbm.block_storage import get_block_storage
from repro.sbm.blockmodel import Blockmodel
from repro.types import Assignment

__all__ = [
    "atomic_write",
    "save_result",
    "load_result",
    "result_payload",
    "result_from_payload",
    "stream_payload",
    "stream_from_payload",
    "save_stream_result",
    "load_stream_result",
    "save_assignment",
    "load_assignment",
    "save_blockmodel",
    "load_blockmodel",
]

#: v3 added the memory gauges (peak_rss_bytes, b_nnz, b_density) to the
#: timings block; v4 the resolved ``block_storage`` engine name; v5 the
#: distributed wire counters (comm_messages, comm_bytes, comm_retries,
#: frames_quarantined, shard_releases); v6 the SamBaS sampling fields
#: (sampler name + realized sample_rate, and the sampling / extension /
#: finetune stage splits in the timings block); v7 the streaming fields
#: (refit_mode, drift, nmi_prev) and the stream-result container format
#: (per-snapshot timings and warm-vs-cold decisions). Older files load
#: the absent fields back as zero / empty (sample_rate as 1.0 — a legacy
#: result is by definition a full-graph fit; nmi_prev as -1.0 — no
#: previous snapshot).
_RESULT_FORMAT_VERSION = 7


@contextmanager
def atomic_write(path: str | os.PathLike[str], mode: str = "w") -> Iterator:
    """Write to ``path`` via a same-directory temp file + :func:`os.replace`.

    Yields an open file handle; on clean exit the temp file replaces
    ``path`` atomically, on error it is removed and the old artifact (if
    any) survives untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        kwargs = {} if "b" in mode else {"encoding": "utf-8"}
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _load_json(path: str | os.PathLike[str], expected_format: str) -> dict:
    """Read a version-tagged JSON artifact, hardened against corruption."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"{path}: corrupt or truncated JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise SerializationError(f"{path}: not a {expected_format} file")
    return payload


def _check_version(path: str | os.PathLike[str], payload: dict, supported: int) -> int:
    version = payload.get("version", 0)
    if isinstance(version, int) and version > supported:
        raise SerializationError(
            f"{path}: {payload.get('format')} version {version} is newer "
            f"than supported v{supported}"
        )
    if not isinstance(version, int) or version < 1:
        raise SerializationError(
            f"{path}: unknown {payload.get('format')} version {version!r} "
            f"(supported: 1..{supported})"
        )
    return version


def _serialized_fields(record_type) -> list[Field]:
    return [f for f in fields(record_type) if f.metadata.get("serialized", True)]


@cache
def _field_types(record_type) -> dict[str, object]:
    return get_type_hints(record_type)


def _to_json(value):
    """Records as ``{field: value}`` dicts in declaration order, arrays as
    lists, everything else as is."""
    if is_dataclass(value):
        return {
            f.name: _to_json(getattr(value, f.name))
            for f in _serialized_fields(type(value))
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _from_json(record_type, payload: dict):
    """Rebuild a record from :func:`_to_json` output, field by field.

    Each value is converted to its field's annotated type. An absent key
    takes the field's default (the file predates the field) unless the
    field has none or is declared ``required``: then it raises KeyError.
    """
    types = _field_types(record_type)
    values = {}
    for f in _serialized_fields(record_type):
        if f.name not in payload:
            if f.default is MISSING or f.metadata.get("required"):
                raise KeyError(f.name)
            continue
        value, kind = payload[f.name], types[f.name]
        if is_dataclass(kind):
            values[f.name] = _from_json(kind, value)
        elif kind == Assignment:
            values[f.name] = np.asarray(value, dtype=np.int64)
        else:
            values[f.name] = kind(value)
    return record_type(**values)


def result_payload(result: SBPResult) -> dict:
    """The version-free result body shared by every artifact embedding one.

    Used by plain result files, the stream-result container and the
    service result store — all of them tag the payload with the shared
    format version so old files keep loading. Every serialized field of
    :class:`SBPResult` and its :class:`~repro.types.PhaseTimings`, in
    declaration order.
    """
    return _to_json(result)


def save_result(result: SBPResult, path: str | os.PathLike[str]) -> None:
    """Serialize an :class:`SBPResult` (sweep stats excluded) as JSON."""
    payload = {
        "format": "repro.sbp_result",
        "version": _RESULT_FORMAT_VERSION,
        **result_payload(result),
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)


def result_from_payload(path, payload: dict) -> SBPResult:
    """Rebuild an :class:`SBPResult` from a :func:`result_payload` dict.

    ``path`` is used only for error messages; decode failures raise
    :class:`SerializationError` naming it.
    """
    try:
        return _from_json(SBPResult, payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"{path}: malformed result field ({exc!r})") from exc


def load_result(path: str | os.PathLike[str]) -> SBPResult:
    """Load a result saved by :func:`save_result`."""
    payload = _load_json(path, "repro.sbp_result")
    _check_version(path, payload, _RESULT_FORMAT_VERSION)
    return result_from_payload(path, payload)


def stream_payload(stream) -> dict:
    """The version-free body of a stream-result container.

    Embeds one v7 result payload per snapshot (assignment included, so
    any snapshot's partition can be recovered) plus the stream-level
    decisions: warm-vs-cold counts, per-snapshot drift and
    consecutive-snapshot NMI, and the batch sizes that produced each
    snapshot.
    """
    return {
        "num_snapshots": len(stream.snapshots),
        "warm_refits": stream.warm_refits,
        "cold_fits": stream.cold_fits,
        "drift_policy": stream.drift_policy,
        "drift_threshold": stream.drift_threshold,
        "snapshots": [
            {
                "index": snap.index,
                "edges_added": snap.edges_added,
                "edges_removed": snap.edges_removed,
                "seconds": snap.seconds,
                "result": result_payload(snap.result),
            }
            for snap in stream.snapshots
        ],
    }


def stream_from_payload(path, payload: dict):
    """Rebuild a ``StreamResult`` from a :func:`stream_payload` dict."""
    from repro.streaming.session import SnapshotReport, StreamResult

    try:
        snapshots = [
            SnapshotReport(
                index=int(entry["index"]),
                edges_added=int(entry["edges_added"]),
                edges_removed=int(entry["edges_removed"]),
                seconds=float(entry["seconds"]),
                result=result_from_payload(path, entry["result"]),
            )
            for entry in payload["snapshots"]
        ]
        return StreamResult(
            snapshots=snapshots,
            warm_refits=int(payload["warm_refits"]),
            cold_fits=int(payload["cold_fits"]),
            drift_policy=str(payload["drift_policy"]),
            drift_threshold=float(payload["drift_threshold"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{path}: malformed stream result field ({exc!r})"
        ) from exc


def save_stream_result(stream, path: str | os.PathLike[str]) -> None:
    """Serialize a :class:`~repro.streaming.session.StreamResult` as JSON.

    See :func:`stream_payload` for the container body.
    """
    payload = {
        "format": "repro.stream_result",
        "version": _RESULT_FORMAT_VERSION,
        **stream_payload(stream),
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)


def load_stream_result(path: str | os.PathLike[str]):
    """Load a stream result saved by :func:`save_stream_result`."""
    payload = _load_json(path, "repro.stream_result")
    _check_version(path, payload, _RESULT_FORMAT_VERSION)
    return stream_from_payload(path, payload)


def save_assignment(assignment: Assignment, path: str | os.PathLike[str]) -> None:
    """Write ``vertex community`` lines (the CLI's community format)."""
    assignment = np.asarray(assignment, dtype=np.int64)
    with atomic_write(path) as fh:
        fh.write("# vertex community\n")
        for v, c in enumerate(assignment):
            fh.write(f"{v} {c}\n")


def load_assignment(
    path: str | os.PathLike[str], num_vertices: int | None = None
) -> Assignment:
    """Read a ``vertex community`` file back into a dense vector.

    Vertices absent from the file get community -1 when ``num_vertices``
    is given; otherwise the file must cover 0..V-1 densely.
    """
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ReproError(f"{path}:{lineno}: expected 'vertex community'")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise SerializationError(
                    f"{path}:{lineno}: non-integer assignment entry {line!r}"
                ) from exc
    if not pairs:
        raise ReproError(f"{path}: no assignments found")
    max_vertex = max(v for v, _ in pairs)
    size = num_vertices if num_vertices is not None else max_vertex + 1
    if max_vertex >= size:
        raise ReproError(
            f"{path}: vertex {max_vertex} out of range for size {size}"
        )
    out = np.full(size, -1, dtype=np.int64)
    for v, c in pairs:
        out[v] = c
    if num_vertices is None and (out < 0).any():
        raise ReproError(f"{path}: sparse assignment needs explicit num_vertices")
    return out


def save_blockmodel(bm: Blockmodel, path: str | os.PathLike[str]) -> None:
    """Persist blockmodel state as compressed ``.npz``.

    The matrix is densified for the archive regardless of the in-memory
    storage engine (compression flattens the zero runs anyway); the
    engine's registry name rides along so a load reconstructs the same
    engine.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):  # match np.savez's implicit suffix
        path += ".npz"
    with atomic_write(path, mode="wb") as fh:
        np.savez_compressed(
            fh,
            B=bm.state.to_dense(),
            assignment=bm.assignment,
            num_blocks=np.asarray([bm.num_blocks], dtype=np.int64),
            storage=np.asarray(bm.storage_name),
        )


def load_blockmodel(path: str | os.PathLike[str]) -> Blockmodel:
    """Load a blockmodel saved by :func:`save_blockmodel`.

    Degree vectors are recomputed from B (cheaper than storing them and
    immune to tampered files disagreeing with the matrix). Archives
    written before the storage engines existed carry no ``storage``
    field and load as ``dense``.
    """
    try:
        # Our own handle: np.load(path) leaks the file it opens when the
        # archive is too truncated for NpzFile's constructor.
        with open(path, "rb") as fh, np.load(fh) as data:
            try:
                B = data["B"].astype(np.int64)
                assignment = data["assignment"].astype(np.int64)
                num_blocks = int(data["num_blocks"][0])
            except KeyError as exc:
                raise SerializationError(
                    f"{path}: missing blockmodel field {exc}"
                ) from exc
            storage = str(data["storage"]) if "storage" in data.files else "dense"
    except (zipfile.BadZipFile, EOFError, ValueError, OSError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise SerializationError(
            f"{path}: corrupt or truncated blockmodel archive ({exc})"
        ) from exc
    if B.ndim != 2 or B.shape != (num_blocks, num_blocks):
        raise SerializationError(
            f"{path}: B shape {B.shape} inconsistent with num_blocks {num_blocks}"
        )
    try:
        storage_cls = get_block_storage(storage)
    except BackendError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
    state = storage_cls.from_dense(B)
    return Blockmodel(
        B=state,
        d_out=state.row_sums(),
        d_in=state.col_sums(),
        assignment=assignment,
        num_blocks=num_blocks,
    )
