"""Top-level SBP drivers (paper Fig. 1 outer loop).

``run_sbp`` executes one full agglomerative run: alternate block-merge
and MCMC phases, steering the number of communities with the
golden-section search until the MDL is minimized. ``run_best_of``
repeats a run with derived seeds and keeps the lowest-MDL result, the
paper's §4.2 protocol.

Both drivers are thin callers over the unified fit engine
(:class:`repro.core.fit_session.FitSession`), which owns cold fits,
warm refits from a prior partition, the refinement-MCMC entry point,
and interrupted best-so-far semantics. They remain bit-identical to the
pre-FitSession pipeline (golden-trajectory CI gates enforce this).

Both drivers are resilient (see :mod:`repro.resilience`): passing a
:class:`~repro.resilience.checkpoint.RunCheckpointer` snapshots the
outer-loop state atomically after every agglomerative iteration and
resumes from the latest valid snapshot — bit-identically, because all
randomness is a pure function of ``(seed, phase tag, sweep)``. SIGINT
and ``SBPConfig.time_budget`` stop the run between sweeps and return the
best-so-far partition flagged ``interrupted=True`` instead of dying with
a stack trace, and ``SBPConfig.audit_cadence`` runs self-healing
invariant audits during the search.
"""

from __future__ import annotations

import time

from repro.core.fit_session import FitSession, resolve_storage_policy
from repro.core.results import SBPResult, best_of
from repro.core.variants import SBPConfig
from repro.graph.graph import Graph
from repro.mcmc.engine import SweepEngine, build_plan
from repro.parallel.backend import ExecutionBackend
from repro.resilience.checkpoint import RunCheckpointer, config_digest
from repro.resilience.interrupt import StopGuard
from repro.sbm.blockmodel import Blockmodel
from repro.types import SweepStats
from repro.utils.log import get_logger
from repro.utils.rng import spawn_seeds
from repro.utils.timer import StopwatchPool

__all__ = ["run_sbp", "run_best_of", "run_mcmc_phase"]

_log = get_logger("core.sbp")

def run_mcmc_phase(
    bm: Blockmodel,
    graph: Graph,
    config: SBPConfig,
    backend: ExecutionBackend,
    iteration: int,
    threshold: float,
    timers: StopwatchPool,
    stop: StopGuard | None = None,
) -> list[SweepStats]:
    """Run the variant's MCMC phase to convergence, mutating ``bm``.

    Thin wrapper kept for API stability: builds the registered
    :class:`~repro.mcmc.engine.SweepPlan` for ``config.variant`` and
    hands the loop to the :class:`~repro.mcmc.engine.SweepEngine`, which
    owns randomness derivation, barrier/timer accounting, stop-guard
    polling and stats merging for *every* variant.
    """
    engine = SweepEngine(build_plan(config), config, backend, timers)
    return engine.run_phase(bm, graph, iteration, threshold, stop=stop)


def run_sbp(
    graph: Graph,
    config: SBPConfig | None = None,
    checkpointer: RunCheckpointer | None = None,
) -> SBPResult:
    """Run one full stochastic block partitioning inference on ``graph``.

    Returns the lowest-MDL partition found by the golden-section search,
    with per-phase timings and sweep statistics. With a ``checkpointer``
    the run snapshots its outer-loop state after every agglomerative
    iteration and resumes from the latest valid snapshot on the next
    call — reproducing the uninterrupted run's result bit-identically.
    (Per-sweep statistics of iterations completed before a crash are not
    reconstructed on resume; counters and the search history are.)

    With ``config.sample_rate < 1.0`` the run is delegated to the SamBaS
    sampling pipeline (:func:`repro.sampling.pipeline.run_sampled_sbp`):
    fit the sample, extend, fine-tune. At the default ``1.0`` the
    front-end is bypassed entirely and this function *is* the plain
    full-graph search — bit-identical to the pre-sampling pipeline.
    """
    if config is None:
        config = SBPConfig()
    if config.sample_rate < 1.0:
        # Imported lazily: the pipeline imports this module back.
        from repro.sampling.pipeline import run_sampled_sbp

        return run_sampled_sbp(graph, config, checkpointer)
    return FitSession(graph, config, checkpointer).cold_fit()


def run_best_of(
    graph: Graph,
    config: SBPConfig | None = None,
    runs: int = 5,
    checkpointer: RunCheckpointer | None = None,
) -> tuple[SBPResult, list[SBPResult]]:
    """Paper §4.2 protocol: ``runs`` independent runs, keep the lowest MDL.

    Returns ``(best, all_results)``; aggregate timings (the paper sums
    MCMC time across all runs) are computed by the caller from the list.

    With a ``checkpointer``, each finished member run is persisted and
    the in-flight run snapshots into a per-run subdirectory, so a killed
    best-of search resumes mid-member. ``config.time_budget`` is a
    budget for the *whole* protocol: remaining wall-clock is handed down
    to each member run, and an exhausted budget stops launching members.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if config is None:
        config = SBPConfig()
    # Member digests record the auto storage policy resolved at C = V,
    # as each member's FitSession does; the members themselves run the
    # caller's config, so ``auto`` follows C inside each fit.
    resolved = resolve_storage_policy(graph, config)
    seeds = spawn_seeds(config.seed, runs)
    deadline = (
        time.monotonic() + config.time_budget
        if config.time_budget is not None
        else None
    )
    results: list[SBPResult] = []
    for index, seed in enumerate(seeds):
        run_config = config.replace(seed=seed)
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 and results:
                _log.info(
                    "best-of budget exhausted after %d/%d runs", index, runs
                )
                break
            run_config = run_config.replace(time_budget=max(remaining, 0.0))
        if checkpointer is None:
            results.append(run_sbp(graph, run_config))
            continue
        member_digest = config_digest(resolved.replace(seed=seed))
        prior = checkpointer.load_completed(index, digest=member_digest)
        if prior is not None:
            results.append(prior)
            continue
        result = run_sbp(
            graph, run_config, checkpointer=checkpointer.child(f"run_{index:02d}")
        )
        results.append(result)
        if result.interrupted:
            break  # don't mark completed; a resume reruns this member
        checkpointer.save_completed(index, result, digest=member_digest)
    return best_of(results), results
