"""The layer boundaries a traced run wraps, and the metrics they give.

:func:`layer_patches` lists public attributes of the program, one per
layer boundary; the traced run wraps them from the outside (see
:mod:`perfbench.tracer`). :func:`layer_metrics` turns the spans and
counters of the traced units into per-layer metrics, each per unit of
work (a fit and its refits, a whole stream, a service round) so that runs
which fit a different number of units still compare. ``DESIGN.md`` maps
each one to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
import threading
from dataclasses import dataclass, field

from perfbench.checks import FIT_SPANS
from perfbench.tracer import Patch, Span, Tracer

from repro.core import fit_session, sbp
from repro.core.fit_session import FitSession
from repro.graph.graph import Graph
from repro.mcmc import engine
from repro.parallel.merge import VectorizedMergeBackend
from repro.parallel.vectorized import VectorizedBackend
from repro.resilience.resilient import ResilientBackend
from repro.sampling import pipeline
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.incremental import IncrementalUpdater
from repro.service import orchestrator, server
from repro.service.queue import LeaseQueue
from repro.service.server import PartitionService
from repro.service.store import DiskResultStore
from repro.streaming import session

__all__ = ["PER_LAYER", "QueueClock", "layer_metrics", "layer_patches"]

#: name -> (unit, better) of every per-layer metric, in report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "mcmc.serial_s": ("s", "lower"),
    "mcmc.serial_vertices": ("count", "lower"),
    "mcmc.frozen_s": ("s", "lower"),
    "mcmc.phase_s": ("s", "lower"),
    "mcmc.sweeps": ("count", "lower"),
    "mcmc.proposals": ("count", "lower"),
    "mcmc.accepted": ("count", "lower"),
    "mcmc.accept_ratio": ("ratio", "higher"),
    "parallel.evaluate_s": ("s", "lower"),
    "parallel.evaluated_vertices": ("count", "lower"),
    "parallel.barrier_s": ("s", "lower"),
    "parallel.barrier_moved": ("count", "lower"),
    "core.merge_s": ("s", "lower"),
    "core.merge_scan_s": ("s", "lower"),
    "core.cold_fit_s": ("s", "lower"),
    "core.warm_refit_s": ("s", "lower"),
    "core.fit_self_s": ("s", "lower"),
    "sbm.mdl_s": ("s", "lower"),
    "sbm.mdl_calls": ("count", "lower"),
    "sbm.compact_s": ("s", "lower"),
    "sbm.from_assignment_s": ("s", "lower"),
    "sbm.edge_delta_s": ("s", "lower"),
    "sbm.edge_delta_edges": ("count", "lower"),
    "graph.apply_edge_batch_s": ("s", "lower"),
    "graph.digest_s": ("s", "lower"),
    "sampling.sample_s": ("s", "lower"),
    "sampling.extension_s": ("s", "lower"),
    "service.build_spec_s": ("s", "lower"),
    "service.execute_s": ("s", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.lease_s": ("s", "lower"),
    "service.empty_leases": ("count", "lower"),
    "service.store_get_s": ("s", "lower"),
    "service.store_put_s": ("s", "lower"),
    "service.store_hit_ratio": ("ratio", "higher"),
    "service.store_bytes_written": ("bytes", "lower"),
    "service.result_bytes_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _counter(name: str, amount):
    """An ``on_exit`` hook adding ``amount(args, kwargs)`` to counter ``name``."""

    def on_exit(tracer: Tracer, span: Span, args, kwargs, result) -> None:
        tracer.count(name, amount(args, kwargs))

    return on_exit


def _phase_stats(tracer: Tracer, span: Span, args, kwargs, stats) -> None:
    tracer.count("mcmc.sweeps", len(stats))
    tracer.count("mcmc.proposals", sum(s.proposals for s in stats))
    tracer.count("mcmc.accepted", sum(s.accepted for s in stats))


def _store_get(tracer: Tracer, span: Span, args, kwargs, outcome) -> None:
    tracer.count("service.store_misses" if outcome is None else "service.store_hits")


def _store_put(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    store, outcome = args[0], _arg(args, kwargs, 1, "outcome")
    # Read back through the store's own layout: the bytes it put on disk.
    size = store._path(outcome.digest).stat().st_size
    tracer.count("service.store_bytes_written", size)


def _batch_edges(args, kwargs) -> int:
    batch = _arg(args, kwargs, 1, "batch")
    return int(batch.add.shape[0] + batch.remove.shape[0])


@dataclass
class QueueClock:
    """When each job was first submitted, and how long jobs waited for a lease."""

    submitted: dict[str, float] = field(default_factory=dict)
    waits: list[float] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def on_submit(self, tracer: Tracer, span: Span, args, kwargs, job_id) -> None:
        with self.lock:
            self.submitted.setdefault(job_id, span.end)

    def on_lease(self, tracer: Tracer, span: Span, args, kwargs, job) -> None:
        if job is None:
            tracer.count("service.empty_leases")
            return
        with self.lock:
            submitted = self.submitted.get(job.job_id)
            if submitted is not None:
                self.waits.append(span.end - submitted)


def layer_patches(clock: QueueClock) -> list[Patch]:
    """Every layer boundary the traced run wraps."""
    return [
        Patch(engine, "metropolis_sweep", "mcmc.serial", _counter(
            "mcmc.serial_vertices", lambda a, k: len(_arg(a, k, 2, "vertices")))),
        Patch(engine, "async_gibbs_sweep", "mcmc.frozen"),
        Patch(sbp, "run_mcmc_phase", "mcmc.phase", _phase_stats),
        Patch(VectorizedBackend, "evaluate_sweep", "parallel.evaluate", _counter(
            "parallel.evaluated_vertices", lambda a, k: len(_arg(a, k, 3, "vertices")))),
        Patch(ResilientBackend, "evaluate_sweep", "parallel.evaluate"),
        Patch(IncrementalUpdater, "apply_sweep", "parallel.barrier", _counter(
            "parallel.barrier_moved",
            lambda a, k: len(_arg(a, k, 3, "moved_vertices")))),
        Patch(fit_session, "block_merge_phase", "core.merge"),
        Patch(VectorizedMergeBackend, "evaluate_merges", "core.merge_scan"),
        Patch(FitSession, "cold_fit", "core.cold_fit"),
        Patch(FitSession, "warm_refit", "core.warm_refit"),
        Patch(Blockmodel, "mdl", "sbm.mdl"),
        Patch(Blockmodel, "compact", "sbm.compact"),
        Patch(Blockmodel, "from_assignment", "sbm.from_assignment"),
        Patch(Blockmodel, "apply_edge_delta", "sbm.edge_delta",
              _counter("sbm.edge_delta_edges", _batch_edges)),
        Patch(session, "apply_edge_batch", "graph.apply_edge_batch",
              opens_trace="snapshot"),
        Patch(Graph, "digest", "graph.digest"),
        Patch(pipeline, "sample_graph", "sampling.sample"),
        Patch(pipeline, "extend_assignment", "sampling.extension"),
        Patch(server, "build_job_spec", "service.build_spec", opens_trace="request"),
        Patch(LeaseQueue, "submit", "service.queue_submit", clock.on_submit),
        Patch(LeaseQueue, "lease", "service.lease", clock.on_lease,
              opens_trace="lease"),
        Patch(orchestrator, "execute_job", "service.execute", opens_trace="job"),
        Patch(DiskResultStore, "get", "service.store_get", _store_get),
        Patch(DiskResultStore, "put", "service.store_put", _store_put),
        Patch(PartitionService, "result_bytes", "service.result_bytes"),
    ]


def layer_metrics(tracer: Tracer, clock: QueueClock, units: int) -> dict[str, float]:
    """The per-layer metrics of ``units`` traced units, each per unit.

    ``trace.overhead_frac`` needs untraced units too; the caller adds it.
    """
    counters = tracer.counters

    def seconds(name: str) -> float:
        return tracer.outermost(name)[0] / units

    def calls(name: str) -> float:
        return tracer.outermost(name)[1] / units

    def counted(name: str) -> float:
        return counters.get(name, 0.0) / units

    proposals = counters.get("mcmc.proposals", 0.0)
    lookups = counters.get("service.store_hits", 0.0) + counters.get(
        "service.store_misses", 0.0
    )
    selfs = tracer.self_seconds()
    return {
        "mcmc.serial_s": seconds("mcmc.serial"),
        "mcmc.serial_vertices": counted("mcmc.serial_vertices"),
        "mcmc.frozen_s": seconds("mcmc.frozen"),
        "mcmc.phase_s": seconds("mcmc.phase"),
        "mcmc.sweeps": counted("mcmc.sweeps"),
        "mcmc.proposals": counted("mcmc.proposals"),
        "mcmc.accepted": counted("mcmc.accepted"),
        "mcmc.accept_ratio": (
            counters.get("mcmc.accepted", 0.0) / proposals if proposals else 0.0
        ),
        "parallel.evaluate_s": seconds("parallel.evaluate"),
        "parallel.evaluated_vertices": counted("parallel.evaluated_vertices"),
        "parallel.barrier_s": seconds("parallel.barrier"),
        "parallel.barrier_moved": counted("parallel.barrier_moved"),
        "core.merge_s": seconds("core.merge"),
        "core.merge_scan_s": seconds("core.merge_scan"),
        "core.cold_fit_s": seconds("core.cold_fit"),
        "core.warm_refit_s": seconds("core.warm_refit"),
        "core.fit_self_s": sum(
            selfs[s.sid] for s in tracer.spans if s.name in FIT_SPANS
        ) / units,
        "sbm.mdl_s": seconds("sbm.mdl"),
        "sbm.mdl_calls": calls("sbm.mdl"),
        "sbm.compact_s": seconds("sbm.compact"),
        "sbm.from_assignment_s": seconds("sbm.from_assignment"),
        "sbm.edge_delta_s": seconds("sbm.edge_delta"),
        "sbm.edge_delta_edges": counted("sbm.edge_delta_edges"),
        "graph.apply_edge_batch_s": seconds("graph.apply_edge_batch"),
        "graph.digest_s": seconds("graph.digest"),
        "sampling.sample_s": seconds("sampling.sample"),
        "sampling.extension_s": seconds("sampling.extension"),
        "service.build_spec_s": seconds("service.build_spec"),
        "service.execute_s": seconds("service.execute"),
        "service.queue_wait_s": (
            statistics.fmean(clock.waits) if clock.waits else 0.0
        ),
        "service.lease_s": seconds("service.lease"),
        "service.empty_leases": counted("service.empty_leases"),
        "service.store_get_s": seconds("service.store_get"),
        "service.store_put_s": seconds("service.store_put"),
        "service.store_hit_ratio": (
            counters.get("service.store_hits", 0.0) / lookups if lookups else 0.0
        ),
        "service.store_bytes_written": counted("service.store_bytes_written"),
        "service.result_bytes_s": seconds("service.result_bytes"),
        "trace.spans": len(tracer.spans) / units,
    }
