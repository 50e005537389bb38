"""The SamBaS pipeline: fit on a sample, extend, fine-tune.

``run_sbp`` delegates here whenever ``config.sample_rate < 1.0``. The
three stages (Wanye et al., arXiv:2108.06651):

1. **Sample fit** — draw a deterministic vertex sample
   (:func:`repro.sampling.samplers.sample_graph`) and run the existing
   golden-section search on the induced subgraph, completely unchanged.
2. **Membership extension** — lift the sample partition to the full
   graph and assign every unsampled vertex to its argmax-ΔMDL block
   against the frozen blockmodel
   (:func:`repro.sampling.extension.extend_assignment`), in
   degree-descending barrier batches.
3. **Fine-tune** — a short full-graph search warm-started from the
   extended partition via :meth:`repro.core.fit_session.FitSession.\
warm_refit`: the golden-section bracket is floored at
   ``FitSession.narrowed_min_blocks(B_s, block_reduction_rate)`` around
   the sample's block count B_s, so the search refines at B_s,
   evaluates one reduction below it, and stops.

Every search here runs through :class:`~repro.core.fit_session.\
FitSession` — the warm-start mechanics (bracket floor, refinement MCMC
at iteration tag 0, interrupted best-so-far fallback) live on the
session, not in this module.

Accounting: the whole sample stage (sampler + induce + sample-graph
search) lands in ``PhaseTimings.sampling`` and the extension pass in
``PhaseTimings.extension`` — both extra top-level stages counted in
``total``. The fine-tune's own merge/MCMC/rebuild buckets become the
result's standard buckets, with their sum mirrored in the ``finetune``
sub-bucket. Sweep and iteration counters sum across stages; the
per-stage splits, sampler name and realized rate are serialized as
result-format v6 fields.

Resilience: with a checkpointer, the sample fit snapshots under the
``sample_fit`` child directory and the fine-tune under ``finetune`` —
a killed pipeline resumes mid-stage bit-identically (the extension pass
is cheap and deterministic, so it is simply recomputed). A sample fit
cut short by SIGINT or the time budget still extends its best-so-far
partition to the full graph, skips the fine-tune, and returns the
extended partition flagged ``interrupted=True``.
"""

from __future__ import annotations

import time
from dataclasses import replace as dc_replace

from repro.core.fit_session import FitSession
from repro.core.results import SBPResult
from repro.core.variants import SBPConfig
from repro.graph.graph import Graph
from repro.resilience.checkpoint import RunCheckpointer
from repro.sampling.extension import extend_assignment
from repro.sampling.samplers import sample_graph
from repro.sbm.blockmodel import Blockmodel
from repro.types import FieldKind
from repro.utils.log import get_logger

__all__ = ["run_sampled_sbp"]

_log = get_logger("sampling.pipeline")


def run_sampled_sbp(
    graph: Graph,
    config: SBPConfig,
    checkpointer: RunCheckpointer | None = None,
) -> SBPResult:
    """Run the three-stage sampled pipeline (see module docstring).

    ``config.sample_rate`` must be below 1.0 (``run_sbp`` bypasses this
    module entirely at 1.0). ``config.block_storage`` may be ``auto``:
    the sample fit resolves it against the sample graph, and the
    extended state and the fine-tune at their own block counts.
    """
    started = time.monotonic()

    # Stage 1: sample + fit. The sample-graph search is the stock
    # golden-section search; its whole wall-clock (including its own
    # merge/MCMC phases) is the front-end's "sampling" bucket.
    stage_start = time.monotonic()
    sampled = sample_graph(
        graph, config.sample_rate, config.sampler, config.seed
    )
    _log.info(
        "sampled %d/%d vertices (%.1f%%, sampler=%s, %d induced edges)",
        sampled.num_sampled, graph.num_vertices,
        100.0 * sampled.realized_rate, sampled.sampler,
        sampled.graph.num_edges,
    )
    fit_checkpointer = (
        checkpointer.child("sample_fit") if checkpointer is not None else None
    )
    fit = FitSession(sampled.graph, config, fit_checkpointer).cold_fit()
    sampling_seconds = time.monotonic() - stage_start

    # Stage 2: membership extension. Cheap, deterministic, recomputed on
    # resume rather than checkpointed.
    stage_start = time.monotonic()
    partial = sampled.lift(fit.assignment)
    extended = extend_assignment(
        graph, partial, fit.num_blocks, config.extension_batches
    )
    warm = Blockmodel.from_assignment(
        graph, extended, fit.num_blocks, storage=config.block_storage
    )
    extension_seconds = time.monotonic() - stage_start
    _log.info(
        "extended %d unsampled vertices into C=%d blocks on %r (%.2fs)",
        graph.num_vertices - sampled.num_sampled, fit.num_blocks,
        warm.storage_name, extension_seconds,
    )

    # The front-end's own record: its two stages, plus what the sample
    # fit measured that the full graph's record cannot hold (its time is
    # inside ``sampling``): its wire counters and its memory peak.
    front = dc_replace(
        fit.timings.only(FieldKind.COUNTER),
        sampling=sampling_seconds,
        extension=extension_seconds,
        peak_rss_bytes=fit.timings.peak_rss_bytes,
    )
    remaining = None
    if config.time_budget is not None:
        remaining = max(config.time_budget - (time.monotonic() - started), 0.0)
    if fit.interrupted or remaining == 0.0:
        # Best-so-far: the extended partition, no fine-tune. The session
        # packages it; the sampling-specific accounting rides on top.
        partial_result = FitSession(graph, config).partition_result(
            warm,
            timings=front,
            interrupted=True,
            mcmc_sweeps=fit.mcmc_sweeps,
            outer_iterations=fit.outer_iterations,
            sweep_stats=fit.sweep_stats,
            search_history=fit.search_history,
        )
        return dc_replace(
            partial_result,
            sampler=sampled.sampler,
            sample_rate=sampled.realized_rate,
        )

    # Stage 3: warm-started fine-tune with the narrowed bracket (the
    # floor rule lives on FitSession.narrowed_min_blocks).
    fine_config = (
        config if remaining is None else config.replace(time_budget=remaining)
    )
    fine_checkpointer = (
        checkpointer.child("finetune") if checkpointer is not None else None
    )
    fine = FitSession(graph, fine_config, fine_checkpointer).warm_refit(warm)
    # The fine-tune is the full-graph search: its result is ours, with
    # the front-end's stages and the sample fit's counts added on.
    return dc_replace(
        fine,
        timings=fine.timings.merged_with(
            dc_replace(front, finetune=fine.timings.total)
        ),
        mcmc_sweeps=fit.mcmc_sweeps + fine.mcmc_sweeps,
        outer_iterations=fit.outer_iterations + fine.outer_iterations,
        converged=fit.converged and fine.converged,
        sweep_stats=fit.sweep_stats + fine.sweep_stats,
        sampler=sampled.sampler,
        sample_rate=sampled.realized_rate,
    )
