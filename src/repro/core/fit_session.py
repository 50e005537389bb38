"""The unified fit engine: one object owning every way a search starts.

Before this module existed the golden-section agglomerative search knew
only one entry point (``run_sbp``'s cold fit from the singleton
partition) and the SamBaS pipeline carried private copies of everything
a *warm* start needs: the bracket-floor computation, the refinement-MCMC
phase at iteration tag 0, and the interrupted best-so-far result
construction. :class:`FitSession` hoists all of that behind one
contract:

* :meth:`cold_fit` — the plain pipeline: start from the singleton
  partition, agglomerate, golden-section to the MDL minimum. Exactly
  the pre-refactor ``run_sbp`` chain, byte for byte (golden-trajectory
  CI gates enforce this).
* :meth:`warm_refit` — start from a prior partition: refine it with one
  full-graph MCMC phase at iteration tag 0 (a tag the outer loop, which
  counts from 1, never uses, keeping the refinement's randomness
  disjoint from the loop's), then run the search with its bracket
  *floored* at :meth:`narrowed_min_blocks` around the prior block
  count so it evaluates the prior C and one reduction below it, then
  stops. This is both the SamBaS fine-tune stage and the streaming
  workload's per-snapshot refit.
* :meth:`partition_result` — the interrupted-fit fallback: package a
  bare partition as a best-so-far :class:`SBPResult` without running a
  search (used when a time budget or SIGINT cuts an upstream stage
  short but a usable partition exists).

Resilience semantics are owned here too: with a ``checkpointer`` the
session snapshots the outer-loop state atomically after every completed
agglomerative iteration and resumes bit-identically; on a resume the
snapshot wins and any ``warm_start`` is ignored (the warm state is
already baked into the snapshot's chain).
"""

from __future__ import annotations

from repro.core.merge import block_merge_phase
from repro.core.partition_search import GoldenSectionSearch
from repro.core.results import SBPResult
from repro.core.variants import SBPConfig
from repro.errors import CheckpointError
from repro.graph.graph import Graph
from repro.resilience.audit import InvariantAuditor
from repro.resilience.checkpoint import RunCheckpoint, RunCheckpointer, config_digest
from repro.resilience.interrupt import StopGuard
from repro.sbm.block_storage import resolve_block_storage
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.entropy import normalized_description_length
from repro.types import PhaseTimings, SweepStats
from repro.utils.log import get_logger
from repro.utils.memory import peak_rss_bytes
from repro.utils.timer import StopwatchPool

__all__ = ["FitSession", "resolve_storage_policy"]

_log = get_logger("core.fit_session")


def resolve_storage_policy(graph: Graph, config: SBPConfig) -> SBPConfig:
    """Resolve ``block_storage="auto"`` for ``graph`` at its start, C = V.

    Must run before any :func:`config_digest` evaluation: the digest
    then records the *decision* (a pure function of V, E and the budget
    env), so checkpoints written under ``auto`` resume interchangeably
    with the equivalent explicit config and refuse a genuinely different
    engine. The fit itself keeps the unresolved name and resolves it
    again at every state it builds.
    """
    resolved, _ = resolve_block_storage(
        config.block_storage, graph.num_vertices, graph.num_edges
    )
    if resolved == config.block_storage:
        return config
    return config.replace(block_storage=resolved)


class FitSession:
    """One graph + one config, fit any number of ways (see module doc).

    Parameters
    ----------
    graph:
        The graph every fit of this session runs against.
    config:
        Run configuration. Its storage name is kept as given in
        :attr:`storage` and every state a fit builds (the singleton,
        each merge output, the warm start) resolves it at that state's
        block count, so an ``auto`` fit moves from ``hybrid`` to
        ``dense`` once C is small. :attr:`config` is the copy resolved
        at C = V: the checkpoint digest and ``SBPResult.block_storage``
        read it.
    checkpointer:
        Optional :class:`RunCheckpointer`; fits snapshot their
        outer-loop state after every agglomerative iteration and resume
        from the latest valid snapshot.
    """

    def __init__(
        self,
        graph: Graph,
        config: SBPConfig | None = None,
        checkpointer: RunCheckpointer | None = None,
    ) -> None:
        if config is None:
            config = SBPConfig()
        self.graph = graph
        self.storage = config.block_storage
        self.config = resolve_storage_policy(graph, config)
        if self.config.block_storage != self.storage:
            _log.info(
                "block_storage=%s -> %r at C=%d", self.storage,
                self.config.block_storage, graph.num_vertices,
            )
        self.checkpointer = checkpointer

    # ------------------------------------------------------------------
    # Warm-start helpers (hoisted out of sampling/pipeline.py)
    # ------------------------------------------------------------------
    @staticmethod
    def narrowed_min_blocks(num_blocks: int, reduction_rate: float) -> int:
        """Bracket floor for a warm-started search.

        The golden-section search never proposes fewer than this many
        blocks, so a warm refit evaluates the prior block count and a
        single reduction below it, then stops — the SamBaS rule
        ``min_blocks = max(1, round(B_prior * block_reduction_rate))``.
        """
        return max(1, int(round(num_blocks * reduction_rate)))

    def partition_result(
        self,
        bm: Blockmodel,
        *,
        timings: PhaseTimings | None = None,
        interrupted: bool = True,
        converged: bool = False,
        mcmc_sweeps: int = 0,
        outer_iterations: int = 0,
        sweep_stats: list[SweepStats] | None = None,
        search_history: list[tuple[int, float]] | None = None,
    ) -> SBPResult:
        """Package a bare partition as a (best-so-far) :class:`SBPResult`.

        The interrupted-fit fallback: evaluates the partition's MDL and
        fills the session's graph/config identity fields without running
        any search. ``timings`` defaults to a gauges-only record.
        """
        return self._result(
            bm, bm.mdl(self.graph), timings or PhaseTimings(),
            interrupted=interrupted, converged=converged,
            mcmc_sweeps=mcmc_sweeps, outer_iterations=outer_iterations,
            sweep_stats=sweep_stats or [], search_history=search_history or [],
        )

    def _result(
        self, bm: Blockmodel, mdl: float, timings: PhaseTimings, **run_fields
    ) -> SBPResult:
        """Every result of the session is built here: identity fields
        from the session, gauges sampled from ``bm`` and the process."""
        graph, config = self.graph, self.config
        timings.peak_rss_bytes = max(timings.peak_rss_bytes, peak_rss_bytes())
        timings.b_nnz = bm.state.nnz
        timings.b_density = bm.state.density
        return SBPResult(
            variant=str(config.variant),
            assignment=bm.assignment,
            num_blocks=bm.num_blocks,
            mdl=mdl,
            normalized_mdl=normalized_description_length(
                mdl, graph.num_edges, graph.num_vertices
            ),
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            timings=timings,
            seed=config.seed,
            block_storage=config.block_storage,
            **run_fields,
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def cold_fit(self) -> SBPResult:
        """Plain full search from the singleton partition (``run_sbp``)."""
        return self.run()

    def warm_refit(
        self, warm: Blockmodel, *, min_blocks: int | None = None
    ) -> SBPResult:
        """Search warm-started from ``warm`` with a narrowed bracket.

        The session copies ``warm``, refines it with one MCMC phase at
        iteration tag 0, then runs the golden-section search floored at
        ``min_blocks`` (default: :meth:`narrowed_min_blocks` of the warm
        block count). ``warm`` itself is never mutated.
        """
        if min_blocks is None:
            min_blocks = self.narrowed_min_blocks(
                warm.num_blocks, self.config.block_reduction_rate
            )
        return self.run(warm_start=warm, min_blocks=min_blocks)

    def run(
        self,
        *,
        warm_start: Blockmodel | None = None,
        min_blocks: int = 1,
    ) -> SBPResult:
        """One golden-section agglomerative search (the engine itself).

        With ``warm_start`` the search starts from a copy of that
        blockmodel instead of the singleton partition and first
        *refines* it with one MCMC phase at iteration tag 0 before the
        search consumes it. ``min_blocks`` floors the golden-section
        bracket. With the defaults the code path is exactly the plain
        pipeline. On a checkpoint resume the snapshot wins and
        ``warm_start`` is ignored.
        """
        from repro.core.sbp import run_mcmc_phase
        from repro.parallel.backend import get_backend

        graph = self.graph
        config = self.config
        checkpointer = self.checkpointer

        backend_options = dict(config.backend_options)
        if "distributed" in config.backend:
            backend_options.setdefault(
                "shard_loss_policy", config.shard_loss_policy
            )
        backend = get_backend(config.backend, **backend_options)
        timers = StopwatchPool()
        search = GoldenSectionSearch(
            reduction_rate=config.block_reduction_rate, min_blocks=min_blocks
        )
        auditor = InvariantAuditor(config.audit_cadence, config.audit_self_heal)
        stop = StopGuard(config.time_budget)
        # The distributed runtime's degrade policy stops the run between
        # sweeps instead of raising, yielding a best-so-far result.
        backend.bind_stop_guard(stop)
        digest = config_digest(config)

        state = checkpointer.load() if checkpointer is not None else None
        needs_warm_refine = False
        if state is not None:
            if state.config_digest != digest:
                raise CheckpointError(
                    f"{checkpointer.directory}: checkpoint was written by an "
                    "incompatible configuration (seed/variant/chain "
                    "parameters differ); refusing to resume"
                )
            bm = state.bm
            mdl = state.mdl
            outer = state.outer
            total_sweeps = state.total_sweeps
            search_history = list(state.search_history)
            state.restore_search(search)
            for name, seconds in state.timings.items():
                timers.add(name, seconds)
            _log.info(
                "resumed [%s] from %s at iteration %d (C=%d, mdl=%.2f)",
                str(config.variant), checkpointer.directory, outer,
                bm.num_blocks, mdl,
            )
        else:
            with timers.section("other"):
                bm = (
                    self._warm_copy(warm_start)
                    if warm_start is not None
                    else Blockmodel.singleton(graph, storage=self.storage)
                )
                mdl = bm.mdl(graph)
            outer = 0
            total_sweeps = 0
            search_history = []
            needs_warm_refine = warm_start is not None
            if checkpointer is not None and not needs_warm_refine:
                # Initial snapshot: even a run interrupted before its
                # first iteration completes leaves a valid resume point
                # on disk. (Warm starts snapshot after the refine phase
                # instead, so a resume never replays the refine against
                # a stale tag-0 chain position.)
                checkpointer.save(self._snapshot(
                    search, bm, mdl, outer, total_sweeps, search_history,
                    timers, digest,
                ))

        all_stats: list[SweepStats] = []
        converged = False
        interrupted = False
        try:
            with stop.install():
                if needs_warm_refine:
                    # Warm-start entry (SamBaS fine-tune, streaming
                    # refit): refine the prior partition with full-graph
                    # sweeps before the narrowed search consumes it.
                    # Iteration tag 0 keeps this phase's randomness
                    # disjoint from the loop's (tags >= 1).
                    phase_stats = run_mcmc_phase(
                        bm, graph, config, backend, 0, config.mcmc_threshold,
                        timers, stop=stop,
                    )
                    total_sweeps += len(phase_stats)
                    all_stats.extend(phase_stats)
                    with timers.section("other"):
                        bm.compact()
                        mdl = bm.mdl(graph)
                    search_history.append((bm.num_blocks, mdl))
                    if checkpointer is not None and not stop.triggered:
                        checkpointer.save(self._snapshot(
                            search, bm, mdl, outer, total_sweeps,
                            search_history, timers, digest,
                        ))
                while True:
                    step = search.update(bm, mdl)
                    if step.done:
                        converged = True
                        break
                    if outer >= config.max_outer_iterations:
                        break
                    if stop.triggered:
                        interrupted = True
                        break
                    outer += 1
                    assert step.start is not None
                    with timers.section("block_merge"):
                        bm = block_merge_phase(
                            step.start, graph, step.num_merges, config, outer,
                            timers=timers, storage=self.storage,
                        )
                    self._log_switch(step.start, bm)
                    if config.validate:
                        bm.check_consistency(graph)
                    threshold = (
                        config.mcmc_threshold_final
                        if search.bracket_established
                        else config.mcmc_threshold
                    )
                    phase_stats = run_mcmc_phase(
                        bm, graph, config, backend, outer, threshold, timers,
                        stop=stop,
                    )
                    total_sweeps += len(phase_stats)
                    all_stats.extend(phase_stats)
                    with timers.section("other"):
                        bm.compact()
                        mdl = bm.mdl(graph)
                    mdl = auditor.guard_mdl(mdl, bm, graph, outer)
                    if auditor.due(outer):
                        with timers.section("other"):
                            auditor.audit(bm, graph, outer)
                            mdl = bm.mdl(graph)  # a heal may have changed B
                    search_history.append((bm.num_blocks, mdl))
                    _log.info(
                        "iter %d [%s]: C=%d mdl=%.2f sweeps=%d (%s)",
                        outer, str(config.variant), bm.num_blocks, mdl,
                        len(phase_stats),
                        "golden" if search.bracket_established else "halving",
                    )
                    # Only fully-converged iterations are checkpointed: a
                    # phase cut short by the stop guard would resume from
                    # a different point in the chain than a clean rerun.
                    if checkpointer is not None and not stop.triggered:
                        checkpointer.save(self._snapshot(
                            search, bm, mdl, outer, total_sweeps,
                            search_history, timers, digest,
                        ))
        finally:
            # Harvest the wire report before close() tears the transport
            # down.
            comm_report = backend.comm_report()
            backend.close()

        if comm_report.get("degraded"):
            # A shard died under the 'degrade' policy: the survivors
            # finished the run, but the chain is no longer the reference
            # chain.
            interrupted = True

        best = search.best.copy()
        best.compact()
        best_mdl = search.best_mdl
        _log.info(
            "%s [%s]: C=%d mdl=%.2f after %d iterations / %d sweeps "
            "(merge %.2fs, mcmc %.2fs, rebuild %.2fs)",
            "interrupted" if interrupted else "done",
            str(config.variant), best.num_blocks, best_mdl, outer,
            total_sweeps, timers.elapsed("block_merge"),
            timers.elapsed("mcmc"), timers.elapsed("rebuild"),
        )
        return self._result(
            best, best_mdl, PhaseTimings.from_run(timers.snapshot(), comm_report),
            mcmc_sweeps=total_sweeps,
            outer_iterations=outer,
            converged=converged,
            interrupted=interrupted,
            sweep_stats=all_stats if config.record_work else [],
            search_history=search_history,
        )

    def _warm_copy(self, warm: Blockmodel) -> Blockmodel:
        """``warm`` on the engine the session's storage picks at its C:
        a copy when it already sits there, a rebuild otherwise."""
        engine, _ = resolve_block_storage(
            self.storage, warm.num_blocks, self.graph.num_edges
        )
        if warm.storage_name == engine:
            return warm.copy()
        bm = Blockmodel.from_assignment(
            self.graph, warm.assignment, warm.num_blocks, storage=engine
        )
        self._log_switch(warm, bm)
        return bm

    def _log_switch(self, before: Blockmodel, after: Blockmodel) -> None:
        if after.storage_name != before.storage_name:
            _log.info(
                "block_storage=%s: %r -> %r at C=%d", self.storage,
                before.storage_name, after.storage_name, after.num_blocks,
            )

    @staticmethod
    def _snapshot(
        search: GoldenSectionSearch,
        bm: Blockmodel,
        mdl: float,
        outer: int,
        total_sweeps: int,
        search_history: list[tuple[int, float]],
        timers: StopwatchPool,
        digest: str,
    ) -> RunCheckpoint:
        return RunCheckpoint(
            outer=outer,
            total_sweeps=total_sweeps,
            bm=bm.copy(),
            mdl=mdl,
            anchors=search.export_anchors(),
            search_history=list(search_history),
            timings=timers.snapshot(),
            config_digest=digest,
        )
