"""The streaming workload: warm-refit a partition along an edge stream.

A :class:`StreamSession` consumes an :class:`~repro.streaming.source.\
EdgeStream` (initial graph + ordered edge batches) and fits every
snapshot:

* **Snapshot 0** is always a cold fit of the initial graph.
* **Snapshot i > 0** first advances the graph
  (:func:`~repro.graph.stream.apply_edge_batch`) and the carried
  blockmodel (:meth:`~repro.sbm.blockmodel.Blockmodel.apply_edge_delta`
  — the O(|batch|) scatter path, not a recount), then evaluates the
  **drift**: the relative normalized-MDL change of the carried partition
  on the mutated graph. The configured
  :class:`~repro.streaming.drift.DriftPolicy` turns drift into a
  warm-vs-cold decision — a warm refit
  (:meth:`~repro.core.fit_session.FitSession.warm_refit`, narrowed
  golden-section bracket around the carried block count) when the old
  structure still fits, a cold fit when it broke.

Every snapshot's result carries the v7 streaming fields (``refit_mode``,
``drift``, ``nmi_prev`` — consecutive-snapshot stability via
:func:`~repro.metrics.alignment.consecutive_nmi`).

Resilience composes with the existing checkpoint layer: each completed
snapshot persists under its index (``RunCheckpointer.save_completed``
with a stream-aware digest) and the in-flight snapshot's search
snapshots into the ``snap_NNN`` child directory — a stream killed
mid-snapshot resumes inside that snapshot's golden-section search,
bit-identically. A fit cut short by SIGINT or the time budget ends the
stream with the snapshots completed so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from repro.core.fit_session import FitSession
from repro.core.results import SBPResult
from repro.core.variants import SBPConfig
from repro.graph.stream import EdgeBatch, apply_edge_batch
from repro.metrics.alignment import consecutive_nmi
from repro.resilience.checkpoint import RunCheckpointer, config_digest
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.entropy import normalized_description_length
from repro.streaming.drift import drift_value, get_drift_policy
from repro.streaming.source import EdgeStream
from repro.utils.log import get_logger

__all__ = ["SnapshotReport", "StreamResult", "StreamSession"]

_log = get_logger("streaming.session")


@dataclass(frozen=True)
class SnapshotReport:
    """One snapshot's outcome: the fit plus the batch that produced it."""

    index: int
    edges_added: int
    edges_removed: int
    #: wall-clock of the whole snapshot step (delta + drift + fit);
    #: 0.0 when the snapshot was restored from a checkpoint.
    seconds: float
    result: SBPResult


@dataclass
class StreamResult:
    """Outcome of a full stream run."""

    snapshots: list[SnapshotReport] = field(default_factory=list)
    warm_refits: int = 0
    cold_fits: int = 0
    drift_policy: str = "mdl-ratio"
    drift_threshold: float = 0.0

    @property
    def final(self) -> SBPResult:
        """The last snapshot's fit."""
        if not self.snapshots:
            raise ValueError("empty stream result has no final snapshot")
        return self.snapshots[-1].result

    @property
    def interrupted(self) -> bool:
        return bool(self.snapshots) and self.snapshots[-1].result.interrupted

    def summary_rows(self) -> list[dict[str, object]]:
        """Flat per-snapshot rows for the reporting layer."""
        return [
            {
                "snapshot": snap.index,
                "mode": snap.result.refit_mode,
                "drift": snap.result.drift,
                "nmi_prev": snap.result.nmi_prev,
                "blocks": snap.result.num_blocks,
                "MDL_norm": snap.result.normalized_mdl,
                "E": snap.result.num_edges,
                "+edges": snap.edges_added,
                "-edges": snap.edges_removed,
                "seconds": snap.seconds,
                "sweeps": snap.result.mcmc_sweeps,
            }
            for snap in self.snapshots
        ]


class StreamSession:
    """Fit every snapshot of an edge stream (see module doc).

    Parameters
    ----------
    config:
        Per-snapshot fit configuration (variant, seed, storage, ...).
        The same config drives every snapshot; its checkpoint digest is
        extended with the stream parameters so resumed streams refuse a
        changed policy.
    drift_policy:
        Registered :class:`~repro.streaming.drift.DriftPolicy` name
        deciding warm vs cold per snapshot.
    drift_threshold:
        Threshold handed to the policy (relative normalized-MDL change).
    checkpointer:
        Optional :class:`RunCheckpointer`; completed snapshots persist
        under their index and the in-flight snapshot's search snapshots
        into a ``snap_NNN`` child directory.
    """

    def __init__(
        self,
        config: SBPConfig | None = None,
        *,
        drift_policy: str = "mdl-ratio",
        drift_threshold: float = 0.05,
        checkpointer: RunCheckpointer | None = None,
    ) -> None:
        if drift_threshold < 0.0:
            raise ValueError(
                f"drift_threshold must be >= 0, got {drift_threshold}"
            )
        self.config = config if config is not None else SBPConfig()
        self.policy = get_drift_policy(drift_policy)
        self.drift_threshold = float(drift_threshold)
        self.checkpointer = checkpointer

    # ------------------------------------------------------------------
    def _snapshot_digest(self, config: SBPConfig, index: int) -> str:
        return (
            f"{config_digest(config)}:stream:{self.policy.name}"
            f":{self.drift_threshold!r}:{index}"
        )

    @staticmethod
    def _grown_assignment(
        assignment: np.ndarray, num_vertices: int, num_blocks: int
    ) -> np.ndarray:
        """Extend ``assignment`` to newborn vertices, deterministically.

        New vertices join the largest existing block (lowest id on
        ties) — they arrive with no edges of their own to argue
        otherwise, and the warm refit immediately re-evaluates them.
        """
        grow = num_vertices - assignment.shape[0]
        if grow <= 0:
            return assignment
        sizes = np.bincount(assignment, minlength=num_blocks)
        target = int(np.argmax(sizes))
        return np.concatenate(
            [assignment, np.full(grow, target, dtype=np.int64)]
        )

    # ------------------------------------------------------------------
    def run(self, stream: EdgeStream) -> StreamResult:
        """Fit every snapshot of ``stream``; see the module doc.

        ``config.time_budget`` budgets the *whole stream*: each
        snapshot's fit receives the remaining wall-clock, and an
        exhausted budget stops consuming snapshots (the completed
        prefix is returned; a checkpointed rerun picks up where the
        budget ran out).
        """
        started = time.monotonic()
        out = StreamResult(
            drift_policy=self.policy.name,
            drift_threshold=self.drift_threshold,
        )
        graph = stream.graph
        prev: SBPResult | None = None
        engine = ""  # the engine the previous carried state sat on

        for index in range(stream.num_snapshots):
            step_start = time.monotonic()
            snap_config = self.config
            if self.config.time_budget is not None:
                remaining = max(
                    self.config.time_budget - (step_start - started), 0.0
                )
                if remaining == 0.0 and out.snapshots:
                    _log.info(
                        "stream budget exhausted after %d snapshots",
                        len(out.snapshots),
                    )
                    break
                snap_config = self.config.replace(time_budget=remaining)
            batch: EdgeBatch | None = None
            carried: Blockmodel | None = None
            drift = 0.0
            cold = True
            if index > 0:
                assert prev is not None
                batch = stream.batches[index - 1].normalized()
                new_graph = apply_edge_batch(graph, batch)
                assignment = self._grown_assignment(
                    prev.assignment, new_graph.num_vertices, prev.num_blocks
                )
                # The carried state sits on the configured engine at the
                # carried C (``auto`` resolves there, not at V).
                if assignment.shape[0] == graph.num_vertices:
                    # No vertex growth: carry the blockmodel through the
                    # O(|batch|) edge-delta scatter path.
                    carried = Blockmodel.from_assignment(
                        graph, assignment, prev.num_blocks,
                        storage=self.config.block_storage,
                    )
                    carried.apply_edge_delta(batch)
                else:
                    # Growth snapshots recount against the new graph (the
                    # delta path needs a fixed assignment length).
                    carried = Blockmodel.from_assignment(
                        new_graph, assignment, prev.num_blocks,
                        storage=self.config.block_storage,
                    )
                if carried.storage_name != (engine or prev.block_storage):
                    _log.info(
                        "snapshot %d: block_storage=%s carries C=%d on %r",
                        index, self.config.block_storage, carried.num_blocks,
                        carried.storage_name,
                    )
                engine = carried.storage_name
                graph = new_graph
                carried_nmdl = normalized_description_length(
                    carried.mdl(graph), graph.num_edges, graph.num_vertices
                )
                drift = drift_value(prev.normalized_mdl, carried_nmdl)
                cold = self.policy.should_cold_fit(drift, self.drift_threshold)

            session = FitSession(
                graph,
                snap_config,
                self.checkpointer.child(f"snap_{index:03d}")
                if self.checkpointer is not None
                else None,
            )
            digest = self._snapshot_digest(session.config, index)
            restored = (
                self.checkpointer.load_completed(index, digest=digest)
                if self.checkpointer is not None
                else None
            )
            if restored is not None:
                result = restored
                seconds = 0.0
                _log.info(
                    "snapshot %d restored from checkpoint (%s, C=%d)",
                    index, result.refit_mode, result.num_blocks,
                )
            else:
                if cold or carried is None:
                    result = session.cold_fit()
                else:
                    result = session.warm_refit(carried)
                nmi_prev = (
                    consecutive_nmi(prev.assignment, result.assignment)
                    if prev is not None
                    else -1.0
                )
                result = dc_replace(
                    result,
                    refit_mode="cold" if cold else "warm",
                    drift=drift,
                    nmi_prev=nmi_prev,
                )
                seconds = time.monotonic() - step_start
                if self.checkpointer is not None and not result.interrupted:
                    self.checkpointer.save_completed(
                        index, result, digest=digest
                    )
                _log.info(
                    "snapshot %d: %s fit, drift=%.4f, C=%d, nmi_prev=%.3f "
                    "(%.2fs)",
                    index, result.refit_mode, drift, result.num_blocks,
                    result.nmi_prev, seconds,
                )
            if result.refit_mode == "cold":
                out.cold_fits += 1
            else:
                out.warm_refits += 1
            out.snapshots.append(SnapshotReport(
                index=index,
                edges_added=int(batch.add.shape[0]) if batch is not None else 0,
                edges_removed=(
                    int(batch.remove.shape[0]) if batch is not None else 0
                ),
                seconds=seconds,
                result=result,
            ))
            if result.interrupted:
                _log.info(
                    "stream interrupted at snapshot %d; %d snapshots done",
                    index, len(out.snapshots) - 1,
                )
                break
            prev = result
        return out
