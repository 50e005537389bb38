"""The benchmark's three workloads; the driver runs each in its own process.

``fit-hsbp``
    Cold H-SBP fits (``run_sbp``, paper defaults, f=0.15) of one planted
    DCSBM, each followed by warm refits (``FitSession.warm_refit``) from
    its partition. ``auto`` storage resolves to dense, and the serial
    Metropolis top tier takes most of the time.
``stream-churn``
    A ``synthetic-churn`` stream through ``StreamSession`` with A-SBP: a
    cold fit of snapshot 0 on the hybrid engine, then one warm refit per
    later snapshot through the edge-delta path. There is no serial tier.
``service-mix``
    An in-process ``PartitionService`` (disk store, fifo queue, two
    workers, ephemeral port) driven over HTTP by two closed-loop clients.
    Each upload is a cache miss once and a cache hit ``hits`` times;
    A-SBP, H-SBP and ``sample_rate=0.3`` jobs take turns.

Every workload reports every end-to-end metric, each for its own cold
and warm operation (``DESIGN.md`` has the table). A run sets up
``SETUP_REPS`` times and reports the median, then repeats its unit of
work (a fit and its refits, a whole stream, a service round) until the
measured seconds are used up. Units of the fit and stream workloads
cycle through the inputs built in set-up. A traced run alternates traced and
untraced units; comparing the two gives the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
import urllib.request
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from perfbench.checks import Checks, check_fit_spans, check_result, snapshot_graphs
from perfbench.layers import PER_LAYER, QueueClock, layer_metrics, layer_patches
from perfbench.tracer import Tracer, wrapped_targets

from repro.core.fit_session import FitSession
from repro.core.sbp import run_sbp
from repro.core.variants import SBPConfig
from repro.generators import DCSBMParams, generate_dcsbm
from repro.graph.graph import Graph
from repro.sbm.blockmodel import Blockmodel
from repro.service.queue import get_job_queue
from repro.service.server import PartitionService
from repro.service.store import get_result_store
from repro.streaming import StreamSession, synthetic_churn_stream

__all__ = [
    "END_TO_END",
    "WORKLOADS",
    "FitSizes",
    "Outcome",
    "ServiceSizes",
    "StreamSizes",
]

#: Set-ups per run; ``setup_s`` is their median. The fit and stream
#: workloads build a different input each time and their units cycle
#: through them, so a run's medians average over graphs as well as over
#: chain seeds: fit times vary more between graphs than between seeds.
SETUP_REPS = 5

#: name -> unit of every end-to-end metric, in report order.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "fit_s": "s",
    "warm_p50_s": "s",
    "warm_p75_s": "s",
    "ops_per_s": "1/s",
    "mdl_norm": "ratio",
    "nmi": "ratio",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class FitSizes:
    """``fit-hsbp``: the planted graph, and what every fit must show."""

    vertices: int = 800
    communities: int = 8
    ratio: float = 10.0
    mean_degree: float = 20.0
    d_max: int = 80
    #: warm refits per cold fit, enough for a steady ``warm_p75_s``
    warm_refits: int = 8
    storage: str = "dense"
    nmi_floor: float = 0.7


@dataclass(frozen=True)
class StreamSizes:
    """``stream-churn``: the churning stream, and what every snapshot must show."""

    vertices: int = 2100
    communities: int = 8
    ratio: float = 10.0
    mean_degree: float = 10.0
    snapshots: int = 41
    churn: float = 0.05
    storage: str = "hybrid"
    nmi_floor: float = 0.7


@dataclass(frozen=True)
class ServiceSizes:
    """``service-mix``: the uploads, the load, and what every job must show."""

    uploads: int = 16
    min_vertices: int = 250
    max_vertices: int = 400
    communities: int = 4
    ratio: float = 10.0
    mean_degree: float = 10.0
    hits: int = 4
    clients: int = 2
    workers: int = 2
    poll_s: float = 0.02
    timeout_s: float = 120.0
    nmi_floor: float = 0.3


FIT_SIZES = FitSizes()
STREAM_SIZES = StreamSizes()
SERVICE_SIZES = ServiceSizes()


@dataclass
class Outcome:
    """One run's metrics, operation counts and output checks."""

    checks: Checks = field(default_factory=Checks)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def op(self, what: str, fn: Callable, count: int = 1):
        """Run and time one operation: ``(result, seconds)``, or ``(None, 0.0)``.

        An operation that raises is counted as ``count`` failures and its
        traceback printed; the run goes on and ends incorrect.
        """
        self.attempted += count
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # the failure boundary: count, report, keep measuring
            self.failed += count
            print(f"perfbench: {what} failed\n{traceback.format_exc()}", file=sys.stderr)
            return None, 0.0
        return result, time.perf_counter() - start

    @property
    def correct(self) -> bool:
        return self.checks.passed and self.failed == 0

    def as_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


class Tracing:
    """A run's tracer, the patches it installs, and its traced units."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.tracer = Tracer()
        self.clock = QueueClock()
        self.patches = layer_patches(self.clock)
        self.traced_units = 0
        #: cold-operation seconds of traced (True) and untraced units.
        self.cold: dict[bool, list[float]] = {True: [], False: []}
        #: trace id -> seconds measured around a traced ``run_sbp`` call.
        self.fit_walls: dict[str, float] = {}

    def units(self, seconds: float) -> Iterator[tuple[int, bool]]:
        """Yield ``(unit, traced)`` until ``seconds`` of measuring are used.

        A unit starts only if half a mean unit still fits, so a run
        overruns ``seconds`` by half a unit at most on average. A traced
        run alternates traced and untraced units, traced first, and runs
        at least one of each.
        """
        start = time.perf_counter()
        unit = 0
        while True:
            spent = time.perf_counter() - start
            if unit >= (2 if self.enabled else 1) and spent + 0.5 * spent / unit >= seconds:
                return
            traced = self.enabled and unit % 2 == 0
            self.traced_units += traced
            yield unit, traced
            unit += 1

    def around(self, traced: bool, outcome: Outcome):
        """The patches for a traced unit; an untraced one checks none is in place."""
        if traced:
            return self.tracer.installed(self.patches)
        wrapped = wrapped_targets(self.patches)
        outcome.checks.expect("untraced_installs_none", not wrapped, ", ".join(wrapped))
        return nullcontext()

    def finish(self, outcome: Outcome, trace_file: Path) -> None:
        """Check that every patch is gone. A traced run also checks span
        coverage, reports the per-layer metrics and writes its spans."""
        wrapped = wrapped_targets(self.patches)
        outcome.checks.expect("patches_restored", not wrapped, ", ".join(wrapped))
        if not self.enabled:
            return
        check_fit_spans(outcome.checks, self.tracer, self.fit_walls)
        values = layer_metrics(self.tracer, self.clock, max(self.traced_units, 1))
        traced, untraced = self.cold[True], self.cold[False]
        values["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0
        )
        outcome.metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
        self.tracer.dump(trace_file, {
            "traced_units": self.traced_units,
            "fit_walls": self.fit_walls,
            "metrics": values,
        })


def _set_up(build: Callable[[int], object], seed: int) -> tuple[list, list[float]]:
    """Build ``SETUP_REPS`` inputs from ``seed``: (the inputs, each build's seconds)."""
    inputs, seconds = [], []
    for index in range(SETUP_REPS):
        start = time.perf_counter()
        inputs.append(build(seed * 100 + index))
        seconds.append(time.perf_counter() - start)
    return inputs, seconds


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux counts KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(
    outcome: Outcome,
    setup: list[float],
    cold: list[float],
    warm: list[float],
    elapsed: float,
    quality: list[tuple[float, float]],
    peak_mb: float,
) -> None:
    """Set the end-to-end metrics; ``quality`` holds (mdl_norm, nmi) pairs.

    ``fit_s`` is a mean: a fit or stream run holds only a few cold fits,
    and the service's misses mix job kinds whose latencies differ
    several-fold, so their median jumps from one kind to another.
    """
    if not (cold and warm and quality):
        return  # every operation failed; the checks and counts say so
    values = {
        "setup_s": statistics.median(setup),
        "fit_s": statistics.fmean(cold),
        "warm_p50_s": float(np.quantile(warm, 0.5)),
        "warm_p75_s": float(np.quantile(warm, 0.75)),
        "ops_per_s": (len(cold) + len(warm)) / elapsed,
        "mdl_norm": statistics.median([q[0] for q in quality]),
        "nmi": statistics.median([q[1] for q in quality]),
        "peak_rss_mb": peak_mb,
    }
    outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}


# ----------------------------------------------------------------------
# fit-hsbp
# ----------------------------------------------------------------------
def _warm_refit(graph: Graph, config: SBPConfig, fit):
    """Refit ``graph`` warm-started from ``fit``'s partition."""
    prior = Blockmodel.from_assignment(
        graph, fit.assignment, fit.num_blocks, storage=fit.block_storage
    )
    return FitSession(graph, config).warm_refit(prior)


def fit_hsbp(
    seed: int, seconds: float, trace: bool, work_dir: Path, sizes: FitSizes = FIT_SIZES
) -> Outcome:
    params = DCSBMParams(
        num_vertices=sizes.vertices,
        num_communities=sizes.communities,
        within_between_ratio=sizes.ratio,
        mean_degree=sizes.mean_degree,
        d_max=sizes.d_max,
    )
    graphs, setup = _set_up(partial(generate_dcsbm, params), seed)
    outcome, tracing = Outcome(), Tracing(trace)
    cold: list[float] = []
    warm: list[float] = []
    fits = []
    start = time.perf_counter()
    for unit, traced in tracing.units(seconds):
        graph, truth = graphs[unit % len(graphs)]
        config = SBPConfig(variant="h-sbp", seed=seed * 1000 + unit)
        with tracing.around(traced, outcome):
            label = tracing.tracer.begin_trace("fit")
            fit, fit_wall = outcome.op(f"cold fit {unit}", partial(run_sbp, graph, config))
            if fit is None:
                continue
            refits = []
            for index in range(sizes.warm_refits):
                tracing.tracer.begin_trace("refit")
                refit_config = config.replace(seed=config.seed + 1 + index)
                refits.append(outcome.op(
                    f"warm refit {unit}.{index}",
                    partial(_warm_refit, graph, refit_config, fit),
                ))
        cold.append(fit_wall)
        tracing.cold[traced].append(fit_wall)
        if traced:
            tracing.fit_walls[label] = fit_wall
        fits.append(("cold", unit, fit))
        for refit, refit_wall in refits:
            if refit is not None:
                warm.append(refit_wall)
                fits.append(("warm", unit, refit))
    elapsed = time.perf_counter() - start
    peak_mb = _peak_rss_mb()

    quality = []
    for kind, unit, result in fits:
        graph, truth = graphs[unit % len(graphs)]
        label = f"{kind} fit, seed {result.seed}"
        outcome.failed += int(result.interrupted)
        outcome.checks.expect(
            "storage_engine", result.block_storage == sizes.storage,
            f"{label} ran on {result.block_storage}",
        )
        score = check_result(
            outcome.checks, label, graph, result.assignment, result.mdl,
            result.interrupted, truth, sizes.nmi_floor,
        )
        if kind == "cold":
            quality.append((result.normalized_mdl, score))
    _end_to_end(outcome, setup, cold, warm, elapsed, quality, peak_mb)
    tracing.finish(outcome, work_dir / "traces" / f"fit-hsbp-{seed}.json")
    return outcome


# ----------------------------------------------------------------------
# stream-churn
# ----------------------------------------------------------------------
def stream_churn(
    seed: int, seconds: float, trace: bool, work_dir: Path,
    sizes: StreamSizes = STREAM_SIZES,
) -> Outcome:
    def build(stream_seed: int):
        return synthetic_churn_stream(
            num_vertices=sizes.vertices,
            num_communities=sizes.communities,
            num_snapshots=sizes.snapshots,
            churn=sizes.churn,
            within_between_ratio=sizes.ratio,
            mean_degree=sizes.mean_degree,
            seed=stream_seed,
        )

    streams, setup = _set_up(build, seed)
    outcome, tracing = Outcome(), Tracing(trace)
    cold: list[float] = []
    warm: list[float] = []
    runs = []
    start = time.perf_counter()
    for unit, traced in tracing.units(seconds):
        stream = streams[unit % len(streams)]
        config = SBPConfig(variant="a-sbp", seed=seed * 1000 + unit)
        with tracing.around(traced, outcome):
            tracing.tracer.begin_trace("snapshot")
            result, wall = outcome.op(
                f"stream {unit}", partial(StreamSession(config).run, stream),
                count=stream.num_snapshots,
            )
        if result is None:
            continue
        snaps = result.snapshots
        outcome.failed += stream.num_snapshots - len(snaps)  # a stream cut short
        cold.append(snaps[0].seconds)
        tracing.cold[traced].append(snaps[0].seconds)
        warm.extend(snap.seconds for snap in snaps[1:])
        runs.append((stream, config.seed, result, wall))
    elapsed = time.perf_counter() - start
    peak_mb = _peak_rss_mb()

    quality = []
    expected_modes = ["cold"] + ["warm"] * (sizes.snapshots - 1)
    for stream, fit_seed, result, wall in runs:
        snaps = result.snapshots
        outcome.checks.expect(
            "snapshot_count",
            [snap.result.refit_mode for snap in snaps] == expected_modes
            and result.cold_fits == 1 and result.warm_refits == sizes.snapshots - 1,
            f"seed {fit_seed}: {result.cold_fits} cold and {result.warm_refits} "
            f"warm fits over {len(snaps)} snapshots",
        )
        outcome.checks.expect(
            "storage_engine", snaps[0].result.block_storage == sizes.storage,
            f"seed {fit_seed}: snapshot 0 ran on {snaps[0].result.block_storage}",
        )
        spent = sum(snap.seconds for snap in snaps)
        outcome.checks.expect(
            "snapshot_clock", 0.9 * wall <= spent <= wall + 1e-3,
            f"seed {fit_seed}: snapshots report {spent:.3f}s of a {wall:.3f}s run",
        )
        for snap, graph in zip(snaps, snapshot_graphs(stream)):
            fit = snap.result
            outcome.failed += int(fit.interrupted)
            score = check_result(
                outcome.checks, f"seed {fit_seed} snapshot {snap.index}", graph,
                fit.assignment, fit.mdl, fit.interrupted, stream.truth, sizes.nmi_floor,
            )
            quality.append((fit.normalized_mdl, score))
    _end_to_end(outcome, setup, cold, warm, elapsed, quality, peak_mb)
    tracing.finish(outcome, work_dir / "traces" / f"stream-churn-{seed}.json")
    return outcome


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
#: The (job config, vertex multiple) the uploads take in turn. Sample
#: jobs get twice the vertices: a 30% sample of a graph below ~400
#: vertices can collapse to one block.
JOB_KINDS = (
    ({"variant": "a-sbp"}, 1),
    ({"variant": "h-sbp"}, 1),
    ({"variant": "a-sbp", "sample_rate": 0.3}, 2),
)


@dataclass(frozen=True)
class Upload:
    """A graph a client uploads, its planted truth and its job config."""

    graph: Graph
    truth: np.ndarray
    config: dict
    edges_json: str

    def body(self, seed: int) -> bytes:
        """The ``/submit`` body of this upload with one round's seed."""
        config = json.dumps({**self.config, "seed": seed})
        return (
            f'{{"num_vertices": {self.graph.num_vertices}, "config": {config}, '
            f'"edges": {self.edges_json}}}'
        ).encode()


def _uploads(seed: int, sizes: ServiceSizes) -> list[Upload]:
    uploads = []
    spread = sizes.max_vertices - sizes.min_vertices
    for index in range(sizes.uploads):
        config, multiple = JOB_KINDS[index % len(JOB_KINDS)]
        vertices = sizes.min_vertices + spread * index // max(sizes.uploads - 1, 1)
        params = DCSBMParams(
            num_vertices=vertices * multiple,
            num_communities=sizes.communities,
            within_between_ratio=sizes.ratio,
            mean_degree=sizes.mean_degree,
        )
        graph, truth = generate_dcsbm(params, seed=seed * 1000 + index)
        uploads.append(Upload(graph, truth, config, json.dumps(graph.edges.tolist())))
    return uploads


def _start_service(work_dir: Path, sizes: ServiceSizes) -> tuple[PartitionService, Path]:
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
    service = PartitionService(
        get_result_store("disk")(store_dir),
        get_job_queue("fifo")(),
        workers=sizes.workers,
        port=0,
    )
    service.start()
    return service, store_dir


class JobFailed(RuntimeError):
    """The service reported a job FAILED."""


class Client:
    """A closed-loop HTTP client: each request waits for the previous reply."""

    def __init__(self, base: str, sizes: ServiceSizes) -> None:
        self.base = base
        self.poll_s = sizes.poll_s
        self.timeout_s = sizes.timeout_s

    def call(self, path: str, body: bytes | None = None) -> bytes:
        """One request; a reply other than 200 raises ``HTTPError``."""
        request = urllib.request.Request(
            self.base + path, data=body, method="GET" if body is None else "POST"
        )
        with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
            return response.read()

    def job(self, body: bytes) -> tuple[str, bytes, float]:
        """Submit, poll ``/status`` every ``poll_s`` until done, fetch ``/result``.

        Returns the job id, the result bytes and the seconds from sending
        the submit to receiving the result.
        """
        start = time.perf_counter()
        job_id = json.loads(self.call("/submit", body))["job_id"]
        while True:
            state = json.loads(self.call(f"/status/{job_id}"))["state"]
            if state == "done":
                break
            if state == "failed":
                raise JobFailed(job_id)
            if time.perf_counter() - start > self.timeout_s:
                raise TimeoutError(f"job {job_id} not done after {self.timeout_s}s")
            time.sleep(self.poll_s)
        raw = self.call(f"/result/{job_id}")
        return job_id, raw, time.perf_counter() - start


@dataclass
class Request:
    """One job request a client made in a round."""

    kind: str  # "miss" or "hit"
    upload: int
    job_id: str = ""
    raw: bytes = b""
    seconds: float = 0.0
    error: str = ""


def _drive(base: str, bodies: list[bytes], plan: list[list[Request]],
           sizes: ServiceSizes) -> None:
    """Make each client's planned requests, one client thread each."""

    def drive(requests: list[Request]) -> None:
        client = Client(base, sizes)
        for request in requests:
            try:
                request.job_id, request.raw, request.seconds = client.job(
                    bodies[request.upload]
                )
            except Exception as exc:  # counted as a failed request; the client goes on
                request.error = repr(exc)

    threads = [
        threading.Thread(target=drive, args=(requests,), name=f"perfbench-client-{index}")
        for index, requests in enumerate(plan)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _round(base: str, uploads: list[Upload], seed: int, sizes: ServiceSizes) -> list[Request]:
    """Every upload with this round's seed: first each is a miss once, then
    a hit ``sizes.hits`` times, shared out over ``sizes.clients`` threads.

    The hits start once every miss is done, so they time the read path
    rather than waiting on fits for the interpreter lock.
    """
    bodies = [upload.body(seed) for upload in uploads]
    clients = range(sizes.clients)
    misses = [
        [Request("miss", u) for u in range(c, len(uploads), sizes.clients)]
        for c in clients
    ]
    _drive(base, bodies, misses, sizes)
    hits = [
        [Request("hit", u) for u in range(c, len(uploads), sizes.clients)
         for _ in range(sizes.hits)]
        for c in clients
    ]
    _drive(base, bodies, hits, sizes)
    return [request for plan in (misses, hits) for made in plan for request in made]


def service_mix(
    seed: int, seconds: float, trace: bool, work_dir: Path,
    sizes: ServiceSizes = SERVICE_SIZES,
) -> Outcome:
    work_dir.mkdir(parents=True, exist_ok=True)
    outcome, tracing = Outcome(), Tracing(trace)
    setup: list[float] = []
    upload_sets: list[list[Upload]] = []
    rounds = []
    service = store_dir = None
    try:
        for index in range(SETUP_REPS):
            if service is not None:
                service.close()
                shutil.rmtree(store_dir)
            begin = time.perf_counter()
            upload_sets.append(_uploads(seed * 100 + index, sizes))
            service, store_dir = _start_service(work_dir, sizes)
            setup.append(time.perf_counter() - begin)
        host, port = service.address
        base = f"http://{host}:{port}"
        start = time.perf_counter()
        for unit, traced in tracing.units(seconds):
            round_seed = seed * 1000 + unit
            uploads = upload_sets[unit % len(upload_sets)]
            with tracing.around(traced, outcome):
                requests = _round(base, uploads, round_seed, sizes)
            rounds.append((round_seed, uploads, requests))
            misses = [r.seconds for r in requests if r.kind == "miss" and not r.error]
            if misses:
                tracing.cold[traced].append(statistics.fmean(misses))
        elapsed = time.perf_counter() - start
        peak_mb = _peak_rss_mb()
        health = json.loads(Client(base, sizes).call("/health"))
    finally:
        if service is not None:
            service.close()
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)

    cold: list[float] = []
    warm: list[float] = []
    quality = []
    for round_seed, uploads, requests in rounds:
        outcome.attempted += len(requests)
        by_upload: dict[int, list[Request]] = defaultdict(list)
        for request in requests:
            if request.error:
                outcome.failed += 1
                print(f"perfbench: round {round_seed} upload {request.upload} "
                      f"{request.kind} failed: {request.error}", file=sys.stderr)
                continue
            by_upload[request.upload].append(request)
            (cold if request.kind == "miss" else warm).append(request.seconds)
        for index, made in sorted(by_upload.items()):
            upload = uploads[index]
            label = f"round {round_seed} upload {index}"
            miss = [r for r in made if r.kind == "miss"]
            if not miss:
                continue  # the miss failed and is counted above
            outcome.checks.expect(
                "hit_bytes_equal",
                all(r.raw == miss[0].raw and r.job_id == miss[0].job_id for r in made),
                label,
            )
            payload = json.loads(miss[0].raw)
            mode = "sample" if upload.config.get("sample_rate", 1.0) < 1.0 else "fit"
            outcome.checks.expect(
                "job_mode", payload["mode"] == mode, f"{label}: {payload['mode']}"
            )
            for result in payload["results"]:
                outcome.failed += int(result["interrupted"])
                score = check_result(
                    outcome.checks, label, upload.graph, result["assignment"],
                    result["mdl"], result["interrupted"], upload.truth, sizes.nmi_floor,
                )
                quality.append((result["normalized_mdl"], score))
    outcome.checks.expect(
        "health_ok", health["ok"] and health["queue"]["failed"] == 0,
        json.dumps(health["queue"]),
    )
    _end_to_end(outcome, setup, cold, warm, elapsed, quality, peak_mb)
    tracing.finish(outcome, work_dir / "traces" / f"service-mix-{seed}.json")
    return outcome


#: workload name -> ``fn(seed, seconds, trace, work_dir, sizes=...)``.
WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "fit-hsbp": fit_hsbp,
    "stream-churn": stream_churn,
    "service-mix": service_mix,
}
