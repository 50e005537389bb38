"""Algorithm variants and run configuration.

The three variants differ only in the MCMC phase (paper Algs. 2-4); the
agglomerative outer loop and the block-merge phase are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Variant", "SBPConfig", "SHARD_LOSS_POLICIES"]

#: ``SBPConfig.shard_loss_policy`` values (see :mod:`repro.distributed.runtime`).
SHARD_LOSS_POLICIES = ("recover", "degrade", "fail")


class Variant(str, Enum):
    """The paper's named MCMC-phase algorithms.

    The enum is a convenience for the four canonical variants; the source
    of truth is the :mod:`repro.mcmc.engine` variant registry, which may
    hold additional plan builders (e.g. ``tiered``). ``SBPConfig.variant``
    therefore accepts any registered name, not just these members.
    """

    SBP = "sbp"       #: serial Metropolis-Hastings (Alg. 2)
    ASBP = "a-sbp"    #: asynchronous Gibbs (Alg. 3)
    HSBP = "h-sbp"    #: hybrid serial V* + async V- (Alg. 4)
    BSBP = "b-sbp"    #: batched async Gibbs (the paper's §6 future work)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class SBPConfig:
    """Tunable parameters of a stochastic block partitioning run.

    Defaults follow the paper and the GraphChallenge baseline lineage:
    15% V* fraction (§4.2), block-count halving per agglomerative step,
    10 merge proposals per block, beta = 3.

    Attributes
    ----------
    variant:
        Algorithm variant for the MCMC phase.
    beta:
        Inverse-temperature multiplier in the MH acceptance.
    vstar_fraction:
        Fraction of highest-degree vertices processed serially by H-SBP.
    num_batches:
        Intra-sweep rebuild count for B-SBP (1 = plain A-SBP staleness);
        also the barrier count of the ``tiered`` plan's middle band.
    tier_split:
        Degree-rank fraction where the ``tiered`` plan's frozen-batched
        middle band ends and its fully parallel tail begins (clamped to
        at least ``vstar_fraction``). Ignored by the four paper
        variants.
    mcmc_threshold, mcmc_threshold_final:
        The paper's ``t``: relative MDL tolerance while searching /
        after the golden-section bracket is established.
    max_sweeps:
        The paper's ``x``: per-phase sweep cap.
    merge_proposals_per_block:
        Merge candidates evaluated per block in Alg. 1.
    block_reduction_rate:
        Fraction of blocks retained per agglomerative step (0.5 halves).
    backend:
        Execution backend for async sweeps: 'serial', 'vectorized',
        'process', a 'resilient:<inner>' wrapper, or
        'distributed:<transport>:<ranks>' for the sharded runtime (all
        bit-identical; see :mod:`repro.distributed.runtime`).
    backend_options:
        Extra keyword arguments for the backend factory.
    shard_loss_policy:
        What the distributed runtime does when a shard dies mid-run:
        'recover' (re-lease its vertices to survivors and re-evaluate
        from the frozen state — bit-identical, the default), 'degrade'
        (finish with survivors, return best-so-far flagged
        ``interrupted=True``) or 'fail' (raise
        :class:`~repro.errors.ShardLost`). Ignored by non-distributed
        backends.
    merge_backend:
        Candidate-scan backend for the block-merge phase (Alg. 1):
        'vectorized' (batch kernels) or 'serial' (the oracle loop).
        Both pick bit-identical merges; only wall-clock differs.
    update_strategy:
        Sweep-barrier update engine: 'incremental' (O(Σ deg(moved))
        scatter delta-apply) or 'rebuild' (the O(E) full-recount
        oracle). Both leave the blockmodel byte-equal after every
        sweep; only wall-clock differs.
    block_storage:
        Inter-block matrix storage engine from the
        :mod:`repro.sbm.block_storage` registry: 'dense' (contiguous
        C x C int64, the oracle), 'sparse' (two flat sorted layouts
        of the non-zero cells, keys r*C+c and c*C+r, 32 bytes per
        non-zero cell) or 'hybrid' (LRU dense line cache written through
        to a sparse backing). Trajectories are bit-identical;
        only memory and wall-clock differ. 'auto' defers the choice to
        :func:`~repro.sbm.block_storage.resolve_block_storage`, which
        picks dense/hybrid from (C, density, memory budget) for every
        state a fit builds — the singleton start, each merge output, a
        warm start — so a large graph starts on hybrid and runs dense
        once C is small. Checkpoint digests and
        ``SBPResult.block_storage`` record the choice at C = V.
    sample_rate:
        SamBaS sampling front-end (:mod:`repro.sampling`): fit the
        golden-section search on a ``ceil(sample_rate * V)``-vertex
        induced sample, extend the partition to the full graph by
        argmax-ΔMDL insertion, then fine-tune with full-graph sweeps
        warm-started from the extension. ``1.0`` (the default) bypasses
        the front-end entirely — bit-identical to a plain run.
    sampler:
        Vertex sampler from the :mod:`repro.sampling.samplers` registry:
        'uniform-random', 'degree-weighted' (default) or
        'expansion-snowball'. Ignored at ``sample_rate=1.0``.
    extension_batches:
        Degree-descending barrier batches for the membership-extension
        pass; later batches see earlier assignments.
    seed:
        Master seed; every random draw in the run derives from it.
    record_work:
        Keep per-sweep work vectors (needed by the simulated thread
        executor; costs memory).
    max_outer_iterations:
        Safety cap on agglomerative iterations.
    validate:
        Run O(E + C^2) blockmodel consistency checks after each phase
        (debug aid; slow).
    time_budget:
        Wall-clock budget in seconds for one run; past the deadline the
        driver stops between sweeps and returns the best-so-far result
        flagged ``interrupted=True``. ``None`` disables the deadline.
    audit_cadence:
        Run the invariant audit (consistency check + non-finite MDL
        guard) every N agglomerative iterations; 0 disables auditing.
    audit_self_heal:
        When an audit finds a corrupt B matrix, rebuild it from the
        assignment (and log) instead of raising immediately.
    """

    variant: Variant | str = Variant.SBP
    beta: float = 3.0
    vstar_fraction: float = 0.15
    num_batches: int = 4
    tier_split: float = 0.5
    mcmc_threshold: float = 5e-4
    mcmc_threshold_final: float = 1e-4
    max_sweeps: int = 30
    merge_proposals_per_block: int = 10
    block_reduction_rate: float = 0.5
    backend: str = "vectorized"
    backend_options: dict = field(default_factory=dict)
    shard_loss_policy: str = "recover"
    merge_backend: str = "vectorized"
    update_strategy: str = "incremental"
    block_storage: str = "auto"
    sample_rate: float = 1.0
    sampler: str = "degree-weighted"
    extension_batches: int = 8
    seed: int = 0
    record_work: bool = False
    max_outer_iterations: int = 120
    validate: bool = False
    time_budget: float | None = None
    audit_cadence: int = 0
    audit_self_heal: bool = True

    def __post_init__(self) -> None:
        try:
            self.variant = Variant(self.variant)
        except ValueError:
            # Not one of the four canonical names: accept any variant the
            # engine registry knows (plan-only variants like 'tiered').
            # Imported lazily -- the engine depends on this module.
            from repro.mcmc.engine import get_variant_spec

            self.variant = get_variant_spec(str(self.variant)).name
        if not 0.0 <= self.vstar_fraction <= 1.0:
            raise ValueError("vstar_fraction must lie in [0, 1]")
        if not 0.0 <= self.tier_split <= 1.0:
            raise ValueError("tier_split must lie in [0, 1]")
        if not 0.0 < self.block_reduction_rate < 1.0:
            raise ValueError("block_reduction_rate must lie in (0, 1)")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.merge_proposals_per_block < 1:
            raise ValueError("merge_proposals_per_block must be >= 1")
        if self.num_batches < 1:
            raise ValueError("num_batches must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.time_budget is not None and self.time_budget < 0:
            raise ValueError("time_budget must be >= 0 (or None)")
        if self.audit_cadence < 0:
            raise ValueError("audit_cadence must be >= 0")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in (0, 1]")
        if self.extension_batches < 1:
            raise ValueError("extension_batches must be >= 1")
        # Validated against the sampler registry (leaf module; the
        # sampling pipeline itself is imported lazily by run_sbp).
        from repro.sampling.samplers import get_sampler

        self.sampler = get_sampler(self.sampler).name
        if self.shard_loss_policy not in SHARD_LOSS_POLICIES:
            raise ValueError(
                f"shard_loss_policy must be one of {SHARD_LOSS_POLICIES}, "
                f"got {self.shard_loss_policy!r}"
            )
        # Engine names are validated against their registries so
        # in-test/plugin engines are accepted; imported lazily (the
        # engines depend on this module). The "auto" storage policy name
        # is legal here and resolved to a concrete engine wherever a fit
        # builds a state (it needs the block count).
        from repro.parallel.backend import available_update_strategies
        from repro.sbm.block_storage import AUTO_STORAGE, available_block_storages

        if self.update_strategy not in available_update_strategies():
            raise ValueError(
                f"update_strategy must be one of {available_update_strategies()}, "
                f"got {self.update_strategy!r}"
            )

        if (
            self.block_storage != AUTO_STORAGE
            and self.block_storage not in available_block_storages()
        ):
            raise ValueError(
                "block_storage must be one of "
                f"{available_block_storages() + [AUTO_STORAGE]}, "
                f"got {self.block_storage!r}"
            )

    def replace(self, **changes) -> "SBPConfig":
        """Return a copy with the given fields changed."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)
