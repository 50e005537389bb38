"""Result records returned by the SBP drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import Assignment, PhaseTimings, SweepStats

__all__ = ["SBPResult", "best_of"]


@dataclass
class SBPResult:
    """Outcome of one community-detection run.

    ``timings`` carries the per-phase wall-clock breakdown used by the
    paper's Fig. 2 (MCMC fraction) and all speedup figures;
    ``mcmc_sweeps`` is the iteration count reported in Fig. 8.

    :mod:`repro.io.serialize` writes every field in declaration order
    under its own name; a file that predates a field loads it as the
    default below, so every default is also the legacy value.
    """

    variant: str
    assignment: Assignment
    num_blocks: int
    mdl: float
    normalized_mdl: float
    num_vertices: int
    num_edges: int
    timings: PhaseTimings
    mcmc_sweeps: int
    outer_iterations: int
    seed: int
    converged: bool
    #: True when the run was cut short (SIGINT or time budget) and this
    #: is the best-so-far partition rather than a converged search.
    interrupted: bool = False
    #: in-memory only, like ``search_history``: result files omit both.
    sweep_stats: list[SweepStats] = field(
        default_factory=list, repr=False, metadata={"serialized": False}
    )
    #: golden-section trace: (num_blocks, mdl) per agglomerative iteration
    search_history: list[tuple[int, float]] = field(
        default_factory=list, repr=False, metadata={"serialized": False}
    )
    #: the concrete storage engine the run used — records what the
    #: ``auto`` policy resolved to (empty on legacy archives).
    block_storage: str = ""
    #: sampler registry name when the SamBaS front-end ran (empty for
    #: plain full-graph runs and legacy archives).
    sampler: str = ""
    #: realized sample rate ``n / V`` after ceil/clamp; 1.0 for plain
    #: runs and legacy archives.
    sample_rate: float = 1.0
    #: how a streaming snapshot's fit started: "warm" (delta-carried
    #: partition refined with a narrowed search), "cold" (drift exceeded
    #: the policy threshold, full search from singleton). Empty for
    #: non-streaming runs and legacy archives.
    refit_mode: str = ""
    #: relative normalized-MDL drift of the carried-forward partition on
    #: the mutated graph that drove the warm-vs-cold decision; 0.0 for
    #: non-streaming runs.
    drift: float = 0.0
    #: NMI against the previous snapshot's partition (consecutive-snapshot
    #: stability); -1.0 when there is no previous snapshot.
    nmi_prev: float = -1.0

    @property
    def mcmc_seconds(self) -> float:
        """MCMC-phase time including the per-sweep rebuilds."""
        return self.timings.mcmc + self.timings.rebuild

    @property
    def total_seconds(self) -> float:
        return self.timings.total

    def summary_row(self) -> dict[str, object]:
        """Flat representation for the reporting layer."""
        return {
            "variant": self.variant,
            "V": self.num_vertices,
            "E": self.num_edges,
            "blocks": self.num_blocks,
            "MDL": self.mdl,
            "MDL_norm": self.normalized_mdl,
            "mcmc_s": self.mcmc_seconds,
            "total_s": self.total_seconds,
            "sweeps": self.mcmc_sweeps,
            "converged": self.converged,
            "interrupted": self.interrupted,
            "storage": self.block_storage,
            "sampler": self.sampler,
            "sample_rate": self.sample_rate,
            "refit_mode": self.refit_mode,
            "drift": self.drift,
            "nmi_prev": self.nmi_prev,
        }


def best_of(results: list[SBPResult]) -> SBPResult:
    """The paper's §4.2 selection rule: keep the lowest-MDL run."""
    if not results:
        raise ValueError("best_of() requires at least one result")
    return min(results, key=lambda r: r.mdl)
