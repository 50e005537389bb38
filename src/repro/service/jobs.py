"""The unified job engine: one spec, one digest, one execution path.

Every entry point that used to hand-roll its own build-config/run/save
loop — ``repro detect``, ``repro compare``, the bench harness's
``run_variant_suite`` and the long-running ``repro serve`` service — now
describes its work as a :class:`JobSpec` and executes it through
:func:`execute_job`. That buys all of them the same three properties:

* **a content address** — :func:`job_digest` composes
  :meth:`Graph.digest() <repro.graph.graph.Graph.digest>` (the graph
  half) with :func:`~repro.resilience.checkpoint.config_digest` (the
  chain-determining config half), plus the mode and best-of run count.
  Stream jobs extend the address with every batch's content and the
  drift policy, since those determine the trajectory too.
* **cache discipline** — with a :class:`~repro.service.store.ResultStore`
  a digest hit loads a byte-equal outcome instead of re-running MCMC.
  This is sound because every engine in the repo is bit-identical by
  construction and the digest covers exactly the fields the checkpoint
  layer proves determine the chain.
* **resilient execution** — jobs run under
  :class:`~repro.core.fit_session.FitSession` /
  :class:`~repro.streaming.session.StreamSession`; an optional
  checkpointer snapshots progress so a re-leased job resumes instead of
  restarting, and ``resilient=True`` wraps the execution backend in the
  ``resilient:<inner>`` timeout/retry/fallback chain.

``block_storage="auto"`` is resolved against the graph (at C = V) when
the digest is computed, mirroring the checkpoint layer: the digest
records the decision, so an ``auto`` job and the equivalent explicit
config share a cache entry. The job itself runs the unresolved config,
so its fits switch engines as C shrinks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.results import SBPResult, best_of
from repro.core.variants import SBPConfig
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.resilience.checkpoint import RunCheckpointer, config_digest
from repro.service.store import ResultStore
from repro.streaming.source import EdgeStream
from repro.utils.log import get_logger

__all__ = ["JOB_MODES", "JobSpec", "JobOutcome", "job_digest", "execute_job"]

_log = get_logger("service.jobs")

#: ``fit`` — full-graph best-of-N search; ``sample`` — the SamBaS
#: front-end (``sample_rate < 1.0``); ``stream`` — a snapshot stream
#: under the drift-policied warm/cold session.
JOB_MODES = ("fit", "sample", "stream")


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines a job's result, and nothing else.

    ``graph`` is the full graph (``fit`` / ``sample``) or the stream's
    initial graph (``stream``; it must be ``stream.graph``). Wall-clock
    knobs like ``time_budget`` ride along inside ``config`` but are
    excluded from the digest by :func:`config_digest`, exactly as they
    are excluded from checkpoint compatibility.
    """

    graph: Graph
    config: SBPConfig
    mode: str = "fit"
    #: best-of-N repetitions (the paper's §4.2 protocol); ignored by
    #: ``stream`` jobs, which fit each snapshot once.
    runs: int = 1
    #: the edge stream for ``stream`` jobs (``graph`` is its initial graph).
    stream: EdgeStream | None = None
    drift_policy: str = "mdl-ratio"
    drift_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in JOB_MODES:
            raise ServiceError(f"mode must be one of {JOB_MODES}, got {self.mode!r}")
        if self.runs < 1:
            raise ServiceError(f"runs must be >= 1, got {self.runs}")
        if self.mode == "stream":
            if self.stream is None:
                raise ServiceError("stream jobs need an EdgeStream")
            if self.stream.graph is not self.graph:
                raise ServiceError(
                    "a stream job's graph must be its stream's initial graph"
                )
        elif self.stream is not None:
            raise ServiceError(f"{self.mode} jobs must not carry a stream")
        if self.mode == "sample" and self.config.sample_rate >= 1.0:
            raise ServiceError("sample jobs need config.sample_rate < 1.0")
        if self.mode == "fit" and self.config.sample_rate < 1.0:
            raise ServiceError(
                "fit jobs need config.sample_rate == 1.0 (use mode='sample')"
            )

    @classmethod
    def for_graph(
        cls, graph: Graph, config: SBPConfig | None = None, runs: int = 1
    ) -> "JobSpec":
        """A fit/sample job, the mode derived from ``config.sample_rate``."""
        if config is None:
            config = SBPConfig()
        mode = "sample" if config.sample_rate < 1.0 else "fit"
        return cls(graph=graph, config=config, mode=mode, runs=runs)

    @classmethod
    def for_stream(
        cls,
        stream: EdgeStream,
        config: SBPConfig | None = None,
        *,
        drift_policy: str = "mdl-ratio",
        drift_threshold: float = 0.05,
    ) -> "JobSpec":
        """A stream job over ``stream``'s snapshots."""
        if config is None:
            config = SBPConfig()
        return cls(
            graph=stream.graph,
            config=config,
            mode="stream",
            stream=stream,
            drift_policy=drift_policy,
            drift_threshold=drift_threshold,
        )

    def resolved(self) -> "JobSpec":
        """Copy with ``block_storage="auto"`` resolved against the graph.

        Must run before :func:`job_digest`, mirroring the checkpoint
        layer: the digest records the resolved *decision*.
        """
        from dataclasses import replace

        from repro.core.fit_session import resolve_storage_policy

        config = resolve_storage_policy(self.graph, self.config)
        if config is self.config:
            return self
        return replace(self, config=config)

    def digest(self) -> str:
        """The job's content address (always of the *resolved* spec)."""
        return job_digest(self.resolved())


def _batch_digest(h: "hashlib._Hash", stream: EdgeStream) -> None:
    """Fold every batch's content into ``h`` (order matters, by design)."""
    for batch in stream.batches:
        h.update(b"batch")
        h.update(int(batch.num_vertices or 0).to_bytes(8, "little"))
        h.update(batch.add.astype("<i8", copy=False).tobytes())
        h.update(b"/")
        h.update(batch.remove.astype("<i8", copy=False).tobytes())


def job_digest(spec: JobSpec) -> str:
    """Canonical content address of a job: sha256 over (graph, config,
    mode, runs[, stream batches + drift policy]).

    The config half reuses :func:`config_digest`, so the address covers
    exactly the chain-determining fields — execution backends, which are
    bit-identical by construction, deliberately do not fragment the
    cache. Call :meth:`JobSpec.resolved` first so an ``auto`` storage
    policy hashes as its resolved engine.
    """
    payload = {
        "graph": spec.graph.digest(),
        "config": config_digest(spec.config),
        "mode": spec.mode,
        "runs": spec.runs if spec.mode != "stream" else 1,
    }
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    if spec.mode == "stream":
        h.update(
            f"stream:{spec.drift_policy}:{spec.drift_threshold!r}".encode("utf-8")
        )
        _batch_digest(h, spec.stream)
    return h.hexdigest()[:32]


@dataclass
class JobOutcome:
    """What :func:`execute_job` returns (and the store persists).

    ``results`` holds the best-of-N member results for fit/sample jobs
    and the per-snapshot results for stream jobs (so callers aggregate
    timings the same way in both shapes); ``stream`` additionally holds
    the full :class:`~repro.streaming.session.StreamResult` container
    for stream jobs.
    """

    digest: str
    mode: str
    results: list[SBPResult] = field(default_factory=list)
    stream: object | None = None  # StreamResult for mode="stream"
    #: True when this outcome was loaded from a store instead of run.
    cache_hit: bool = False

    @property
    def best(self) -> SBPResult:
        """Lowest-MDL member (fit/sample) or final snapshot (stream)."""
        if self.mode == "stream":
            return self.stream.final
        return best_of(self.results)

    @property
    def interrupted(self) -> bool:
        return any(r.interrupted for r in self.results)

    def summary(self) -> dict[str, object]:
        """Flat rollup for status endpoints and reports."""
        best = self.best
        out: dict[str, object] = {
            "digest": self.digest,
            "mode": self.mode,
            "runs": len(self.results),
            "cache_hit": self.cache_hit,
            "variant": best.variant,
            "V": best.num_vertices,
            "E": best.num_edges,
            "blocks": best.num_blocks,
            "MDL_norm": best.normalized_mdl,
            "mcmc_s": sum(r.mcmc_seconds for r in self.results),
            "sweeps": sum(r.mcmc_sweeps for r in self.results),
            "interrupted": self.interrupted,
        }
        if self.mode == "stream":
            out["warm_refits"] = self.stream.warm_refits
            out["cold_fits"] = self.stream.cold_fits
        return out


def execute_job(
    spec: JobSpec,
    store: ResultStore | None = None,
    checkpointer: RunCheckpointer | None = None,
    *,
    resilient: bool = False,
) -> JobOutcome:
    """Execute ``spec``, consulting ``store`` first (see module doc).

    A digest hit in ``store`` returns the cached outcome without running
    anything; a miss runs the job and puts the outcome. Interrupted
    outcomes (time budget, SIGINT, degraded shard) are returned but
    *never* cached — a rerun must finish the work, not re-serve a
    partial result.
    """
    digest = spec.digest()
    if store is not None:
        cached = store.get(digest)
        if cached is not None:
            _log.info("job %s: cache hit (%s)", digest[:12], spec.mode)
            return cached

    # The caller's config, not the resolved one the digest records: an
    # ``auto`` storage policy must reach the fit to follow C there.
    config = spec.config
    if resilient and not any(
        config.backend.startswith(p) for p in ("resilient:", "distributed:")
    ):
        # The distributed runtime owns its own fault tolerance; plain
        # backends get the timeout/retry/fallback chain (bit-identical).
        config = config.replace(backend=f"resilient:{config.backend}")

    if spec.mode == "stream":
        from repro.streaming.session import StreamSession

        session = StreamSession(
            config,
            drift_policy=spec.drift_policy,
            drift_threshold=spec.drift_threshold,
            checkpointer=checkpointer,
        )
        stream_result = session.run(spec.stream)
        outcome = JobOutcome(
            digest=digest,
            mode=spec.mode,
            results=[snap.result for snap in stream_result.snapshots],
            stream=stream_result,
        )
    else:
        from repro.core.sbp import run_best_of

        _, results = run_best_of(
            spec.graph, config, runs=spec.runs, checkpointer=checkpointer
        )
        outcome = JobOutcome(digest=digest, mode=spec.mode, results=results)

    if store is not None and not outcome.interrupted:
        store.put(outcome)
    return outcome
