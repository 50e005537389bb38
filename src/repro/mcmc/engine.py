"""Declarative sweep-plan engine — one executor for every MCMC variant.

The paper's three algorithms (Algs. 2-4) differ *only* in how a sweep is
scheduled: which vertices move in-place serially (fully fresh state) and
which are evaluated against a frozen blockmodel and reconciled at a
barrier. This module makes that difference a piece of **data** instead
of a fork in control flow:

* a :class:`SweepPlan` is an ordered list of :class:`SweepSegment`\\ s,
  each declaring ``(vertex selector, mode, batches)``;
* a single :class:`SweepEngine` executes any plan — owning randomness
  derivation, the :class:`~repro.parallel.backend.SweepUpdater` barrier,
  timer accounting, stop-guard polling and per-sweep
  :class:`~repro.types.SweepStats` merging;
* the variants are registered :class:`VariantSpec` plan builders:
  ``sbp`` = one serial segment over all vertices, ``a-sbp`` = one frozen
  segment, ``b-sbp`` = one frozen segment split into ``num_batches``
  barriers, ``h-sbp`` = serial(V*) + frozen(V−), and ``tiered`` = the
  paper's §6 multi-tier direction (serial top, frozen-batched middle,
  frozen tail). New variants need only :func:`register_variant` — no
  engine or driver edits.

Randomness-tag compatibility
----------------------------
Bit-identical trajectories against the pre-engine sweep functions hinge
on reproducing their Philox streams exactly. The contract:

=========  =======================  ===========================================
mode       stream tag               uniform-table length
=========  =======================  ===========================================
serial     ``iter*4 + 1``           total vertices over *all* serial segments
frozen     ``iter*4 + 2``           total vertices over *all* frozen segments
=========  =======================  ===========================================

One table is drawn per mode per sweep and sliced across that mode's
segments in plan order; batches within a frozen segment slice further.
This reproduces the legacy streams for all four variants: SBP/A-SBP draw
one full-length table, B-SBP shares the A-SBP table across its batches,
and H-SBP draws a ``len(V*)`` serial table plus a ``len(V−)`` frozen
one. Segments that select no vertices are skipped entirely — they draw
no uniforms and pay no barrier — which is what makes the H-SBP boundary
cases degenerate exactly (``vstar_fraction=0`` ≡ A-SBP; ``=1`` ≡ SBP,
see :func:`_hsbp_plan`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

import numpy as np

from repro.errors import ReproError
from repro.mcmc.async_gibbs import async_gibbs_sweep
from repro.mcmc.convergence import ConvergenceMonitor
from repro.mcmc.metropolis import metropolis_sweep
from repro.parallel.partitioner import contiguous_chunks
from repro.types import IntArray, SweepStats
from repro.utils.registry import Registry
from repro.utils.rng import SweepRandomness

if TYPE_CHECKING:  # annotation-only; keeps runtime imports cycle-free
    from repro.core.variants import SBPConfig
    from repro.graph.graph import Graph

__all__ = [
    "TAG_STRIDE",
    "KIND_SERIAL",
    "KIND_FROZEN",
    "SegmentMode",
    "VertexSelector",
    "AllVertices",
    "DegreeTop",
    "DegreeBand",
    "split_vertices_by_degree",
    "SweepSegment",
    "SweepPlan",
    "SweepEngine",
    "VariantSpec",
    "VARIANTS",
    "register_variant",
    "get_variant_spec",
    "available_variants",
    "build_plan",
]

#: RNG phase-tag layout (moved verbatim from the pre-engine driver):
#: each (outer iteration, mode kind) pair gets its own Philox stream.
TAG_STRIDE = 4
KIND_SERIAL = 1
KIND_FROZEN = 2


class SegmentMode(Enum):
    """How a segment's vertices are processed within a sweep."""

    #: Metropolis-Hastings in serial order; every accepted move updates
    #: the blockmodel in place before the next vertex is scored (Alg. 2
    #: semantics), replayed exactly by in-process windows of the batch
    #: kernel (:mod:`repro.mcmc.metropolis`).
    SERIAL_INPLACE = "serial"
    #: All vertices evaluated against the state frozen at batch start;
    #: accepted moves reconciled at a barrier (Alg. 3 semantics —
    #: embarrassingly parallel evaluation).
    FROZEN_PARALLEL = "frozen"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_MODE_KIND = {SegmentMode.SERIAL_INPLACE: KIND_SERIAL,
              SegmentMode.FROZEN_PARALLEL: KIND_FROZEN}


# ----------------------------------------------------------------------
# Vertex selectors
# ----------------------------------------------------------------------
class VertexSelector(Protocol):
    """Declarative 'which vertices' half of a segment.

    ``select`` must be a pure function of the graph — deterministic and
    free of mutable state — so a plan resolved twice yields the same
    chain.
    """

    def select(self, graph: Graph) -> IntArray: ...

    def describe(self) -> str: ...


def split_vertices_by_degree(
    graph: Graph, fraction: float
) -> tuple[IntArray, IntArray]:
    """Partition vertices into (V*, V-) by total degree.

    ``V*`` holds the ``ceil(fraction * V)`` highest-degree vertices (the
    paper reserves 15%), sorted by descending degree with vertex id as a
    deterministic tie-break; ``V-`` holds the rest in ascending id order.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    num_vertices = graph.num_vertices
    count = int(np.ceil(fraction * num_vertices))
    if count == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.arange(num_vertices, dtype=np.int64),
        )
    # argsort on (-degree, id): stable sort on ids is implicit since
    # np.argsort(kind="stable") preserves index order within ties.
    order = np.argsort(-graph.degree, kind="stable")
    vstar = order[:count].astype(np.int64)
    vminus = np.setdiff1d(
        np.arange(num_vertices, dtype=np.int64), vstar, assume_unique=True
    )
    return vstar, vminus


def degree_descending_batches(
    graph: Graph, vertices: IntArray, num_batches: int
) -> list[IntArray]:
    """Split ``vertices`` into contiguous degree-descending batches.

    This is the batching contract of the sampling extension pass
    (:mod:`repro.sampling.extension`): batches are barrier segments, so
    every batch scores against counts frozen at the previous barrier and
    later batches see earlier assignments. Ordering is (descending
    degree, input order) — pass ascending ids for an id tie-break —
    split by :func:`repro.parallel.partitioner.contiguous_chunks`.

    Isolated-vertex guarantee: the batches *partition* the input.
    Degree-0 vertices sort to the tail (the last, cheapest barriers) but
    are never dropped — the same contract the degree selectors above
    honour via their ceil-based rank boundaries. Verified explicitly
    here because a silently dropped vertex would surface much later as
    an unassigned ``-1`` in the extended partition.
    """
    if num_batches < 1:
        raise ReproError(f"num_batches must be >= 1, got {num_batches}")
    vertices = np.asarray(vertices, dtype=np.int64)
    order = vertices[np.argsort(-graph.degree[vertices], kind="stable")]
    batches = [
        order[start:stop]
        for start, stop in contiguous_chunks(order.shape[0], num_batches)
    ]
    if sum(b.shape[0] for b in batches) != vertices.shape[0]:
        raise ReproError("degree batches must partition the vertex set")
    return batches


@dataclass(frozen=True)
class AllVertices:
    """Every vertex, in ascending id order (the Alg. 2/3 traversal)."""

    def select(self, graph: Graph) -> IntArray:
        return np.arange(graph.num_vertices, dtype=np.int64)

    def describe(self) -> str:
        return "all vertices"


@dataclass(frozen=True)
class DegreeTop:
    """The top ``ceil(fraction * V)`` vertices by degree, most-influential
    first (descending degree, id tie-break) — H-SBP's V* traversal."""

    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(
                f"fraction must lie in [0, 1], got {self.fraction}"
            )

    def select(self, graph: Graph) -> IntArray:
        return split_vertices_by_degree(graph, self.fraction)[0]

    def describe(self) -> str:
        return f"top {self.fraction:.1%} by degree"


@dataclass(frozen=True)
class DegreeBand:
    """Vertices whose degree rank lies in ``[low, high)`` (as fractions
    of V), returned in ascending id order.

    ``DegreeBand(f, 1.0)`` is exactly H-SBP's V− (the complement of the
    top-``f`` set, ascending ids); intermediate bands express the tiered
    plans of the paper's §6.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(
                f"need 0 <= low <= high <= 1, got [{self.low}, {self.high})"
            )

    def select(self, graph: Graph) -> IntArray:
        num_vertices = graph.num_vertices
        lo = int(np.ceil(self.low * num_vertices))
        hi = int(np.ceil(self.high * num_vertices))
        if lo >= hi:
            return np.empty(0, dtype=np.int64)
        order = np.argsort(-graph.degree, kind="stable")
        return np.sort(order[lo:hi]).astype(np.int64)

    def describe(self) -> str:
        return f"degree ranks {self.low:.1%}..{self.high:.1%}"


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSegment:
    """One scheduling unit of a sweep: which vertices, processed how.

    ``batches`` (frozen mode only) splits the segment into that many
    contiguous barriers per sweep — staleness drops to ``1/batches`` of
    the segment at the cost of proportionally more reconciliations
    (B-SBP's trade, paper §6).
    """

    selector: VertexSelector
    mode: SegmentMode
    batches: int = 1

    def __post_init__(self) -> None:
        if self.batches < 1:
            raise ValueError(f"batches must be >= 1, got {self.batches}")
        if self.mode is SegmentMode.SERIAL_INPLACE and self.batches != 1:
            raise ValueError(
                "serial segments apply moves in place; batches would not "
                f"change the chain (got batches={self.batches})"
            )

    @property
    def kind(self) -> int:
        """The RNG stream kind this segment draws from."""
        return _MODE_KIND[self.mode]

    def describe(self) -> str:
        suffix = f" x{self.batches} batches" if self.batches > 1 else ""
        return f"{self.mode.value}[{self.selector.describe()}]{suffix}"


@dataclass(frozen=True)
class SweepPlan:
    """An ordered tuple of segments; one full pass = one MCMC sweep."""

    segments: tuple[SweepSegment, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a SweepPlan needs at least one segment")

    @property
    def barriers_per_sweep(self) -> int:
        """Synchronization barriers one sweep pays (frozen batches)."""
        return sum(
            s.batches for s in self.segments
            if s.mode is SegmentMode.FROZEN_PARALLEL
        )

    def describe(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return label + " -> ".join(s.describe() for s in self.segments)


@dataclass(frozen=True)
class _BoundSegment:
    """A segment resolved against a concrete graph."""

    vertices: IntArray
    mode: SegmentMode
    batches: int

    @property
    def kind(self) -> int:
        return _MODE_KIND[self.mode]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class SweepEngine:
    """Executes any :class:`SweepPlan` to convergence.

    The engine owns everything the four hand-written sweep drivers used
    to thread separately: per-(iteration, mode, sweep) randomness
    derivation, the shared :class:`~repro.parallel.backend.SweepUpdater`
    barrier engine, ``mcmc``/``rebuild`` timer accounting (barrier time
    accrued inside a sweep is excluded from the ``mcmc`` bucket), stop
    polling between sweeps, and stats merging.

    Parameters
    ----------
    plan:
        The sweep schedule to execute.
    config:
        Chain parameters (seed, beta, max_sweeps, record_work, ...).
    backend:
        :class:`~repro.parallel.backend.ExecutionBackend` for frozen
        evaluation stages. Serial segments ignore it: their windows
        must see every commit, so they never leave the process.
    timers:
        :class:`~repro.utils.timer.StopwatchPool` accruing the ``mcmc``
        and ``rebuild`` buckets.
    updater:
        Sweep-barrier engine; defaults to the one named by
        ``config.update_strategy``.
    on_sweep:
        Optional callback ``(sweep_index, stats, mdl)`` invoked after
        every sweep — diagnostics/tracing hook, must not mutate state.
    """

    def __init__(
        self,
        plan: SweepPlan,
        config: SBPConfig,
        backend,
        timers,
        updater=None,
        on_sweep: Callable[[int, SweepStats, float], None] | None = None,
    ) -> None:
        self.plan = plan
        self.config = config
        self.backend = backend
        self.timers = timers
        self.mcmc_timer = timers.timer("mcmc")
        self.rebuild_timer = timers.timer("rebuild")
        if updater is None:
            from repro.parallel.backend import get_update_strategy

            updater = get_update_strategy(config.update_strategy, timers=timers)
        self.updater = updater
        self.on_sweep = on_sweep

    # -- plan resolution ------------------------------------------------
    def bind(self, graph: Graph) -> list[_BoundSegment]:
        """Resolve the plan's selectors against ``graph``.

        Empty segments are dropped here: they would draw no uniforms and
        move no vertices, but skipping them also skips their barrier,
        which is what makes degenerate plans (e.g. H-SBP at the fraction
        boundaries) collapse onto their simpler equivalents exactly.
        """
        bound = []
        for segment in self.plan.segments:
            vertices = np.asarray(segment.selector.select(graph), dtype=np.int64)
            if vertices.size == 0:
                continue
            bound.append(
                _BoundSegment(
                    vertices=vertices, mode=segment.mode, batches=segment.batches
                )
            )
        return bound

    # -- timer accounting ----------------------------------------------
    @contextmanager
    def _mcmc_exclusive(self) -> Iterator[None]:
        """Accrue the enclosed block to ``mcmc``, minus nested barrier time.

        Frozen-segment barriers accrue to the ``rebuild`` timer *while
        the sweep runs*; whatever landed there during the block is
        backed out of the ``mcmc`` bucket so the two phases stay
        disjoint (previously a post-hoc subtraction hack in the driver).
        """
        rebuild_before = self.rebuild_timer.elapsed
        self.mcmc_timer.start()
        try:
            yield
        finally:
            self.mcmc_timer.stop()
            overlap = self.rebuild_timer.elapsed - rebuild_before
            if overlap > 0.0:
                self.mcmc_timer.elapsed -= overlap

    # -- execution ------------------------------------------------------
    def run_sweep(
        self,
        bm,
        graph: Graph,
        bound: list[_BoundSegment],
        iteration: int,
        sweep: int,
    ) -> SweepStats:
        """Execute one full pass over the bound plan, mutating ``bm``."""
        config = self.config
        totals = {KIND_SERIAL: 0, KIND_FROZEN: 0}
        for segment in bound:
            totals[segment.kind] += len(segment.vertices)
        tables = {
            kind: SweepRandomness.draw(
                config.seed, iteration * TAG_STRIDE + kind, sweep, total
            )
            for kind, total in totals.items()
            if total > 0
        }
        cursor = {KIND_SERIAL: 0, KIND_FROZEN: 0}
        serial, frozen = SweepStats(), SweepStats()
        for segment in bound:
            start = cursor[segment.kind]
            stop = start + len(segment.vertices)
            cursor[segment.kind] = stop
            rand = SweepRandomness(
                uniforms=tables[segment.kind].uniforms[start:stop]
            )
            if segment.mode is SegmentMode.SERIAL_INPLACE:
                serial = serial.merged_with(metropolis_sweep(
                    bm, graph, segment.vertices, rand, config.beta,
                    record_work=config.record_work,
                ))
            else:
                frozen = frozen.merged_with(
                    self._run_frozen(bm, graph, segment, rand)
                )
        # ``work_per_vertex`` keeps its legacy meaning, the per-vertex work
        # of the *parallel* portion (what the simulated thread executor
        # models): the frozen segments' vectors in plan order, or the
        # serial ones when the plan has no frozen work (pure-serial SBP).
        merged = serial.merged_with(frozen.without_work())
        if frozen.work_per_vertex is not None:
            merged.work_per_vertex = frozen.work_per_vertex
        return merged

    def _run_frozen(
        self, bm, graph: Graph, segment: _BoundSegment, rand: SweepRandomness
    ) -> SweepStats:
        """Frozen-parallel executor: ``batches`` evaluate+barrier rounds.

        The randomness table is shared across batches — row ``i`` always
        drives the ``i``-th vertex of the segment, so ``batches`` only
        changes *when* state refreshes, never which uniforms pair with
        which vertex.
        """
        config = self.config
        total = SweepStats()
        for start, stop in contiguous_chunks(len(segment.vertices), segment.batches):
            batch_rand = SweepRandomness(uniforms=rand.uniforms[start:stop])
            stats = async_gibbs_sweep(
                bm, graph, segment.vertices[start:stop], batch_rand,
                config.beta, self.backend,
                record_work=config.record_work,
                rebuild_timer=self.rebuild_timer, updater=self.updater,
            )
            total = total.merged_with(stats)
        return total

    def run_phase(
        self,
        bm,
        graph: Graph,
        iteration: int,
        threshold: float,
        stop=None,
    ) -> list[SweepStats]:
        """Run the plan to convergence, mutating ``bm``.

        The shared loop of Algs. 2-4: sweep until the windowed |dMDL|
        falls below ``threshold * MDL`` or ``config.max_sweeps`` is
        reached. When ``stop`` triggers (SIGINT / time budget) the phase
        returns early *between* sweeps, leaving ``bm`` in a valid
        post-sweep state.
        """
        monitor = ConvergenceMonitor(threshold, self.config.max_sweeps)
        with self.mcmc_timer.measure():
            monitor.start(bm.mdl(graph))
        bound = self.bind(graph)
        stats_log: list[SweepStats] = []
        sweep = 0
        while True:
            if stop is not None and stop.triggered:
                break
            with self._mcmc_exclusive():
                stats = self.run_sweep(bm, graph, bound, iteration, sweep)
                mdl = bm.mdl(graph)
            stats.delta_mdl = mdl - monitor.last_mdl
            stats.b_nnz = bm.state.nnz
            stats.b_density = bm.state.density
            stats_log.append(
                stats if self.config.record_work else stats.without_work()
            )
            if self.on_sweep is not None:
                self.on_sweep(sweep, stats_log[-1], mdl)
            sweep += 1
            if monitor.update(mdl):
                break
        if self.config.validate:
            bm.check_consistency(graph)
        return stats_log


# ----------------------------------------------------------------------
# Variant registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VariantSpec:
    """A named, registered recipe turning a config into a sweep plan."""

    name: str
    summary: str
    build_plan: Callable[[SBPConfig], SweepPlan]


VARIANTS: Registry[VariantSpec] = Registry("variant", ReproError)
get_variant_spec = VARIANTS.get
available_variants = VARIANTS.names


def register_variant(spec: VariantSpec) -> None:
    """Register a variant; its name becomes a valid ``SBPConfig.variant``."""
    VARIANTS.register(spec.name, spec)


def build_plan(config: SBPConfig) -> SweepPlan:
    """Build the sweep plan for ``config``'s registered variant."""
    return get_variant_spec(config.variant).build_plan(config)


def _sbp_plan(config: SBPConfig) -> SweepPlan:
    return SweepPlan(
        (SweepSegment(AllVertices(), SegmentMode.SERIAL_INPLACE),), name="sbp"
    )


def _asbp_plan(config: SBPConfig) -> SweepPlan:
    return SweepPlan(
        (SweepSegment(AllVertices(), SegmentMode.FROZEN_PARALLEL),), name="a-sbp"
    )


def _bsbp_plan(config: SBPConfig) -> SweepPlan:
    return SweepPlan(
        (
            SweepSegment(
                AllVertices(), SegmentMode.FROZEN_PARALLEL,
                batches=config.num_batches,
            ),
        ),
        name="b-sbp",
    )


def _hsbp_plan(config: SBPConfig) -> SweepPlan:
    """Serial V* pass, then frozen V− pass (paper Alg. 4).

    The boundaries degenerate *by construction*: at ``vstar_fraction=0``
    the serial segment selects nothing and is skipped, leaving exactly
    the A-SBP plan; at ``1.0`` the whole graph is the serial segment and
    the plan must equal SBP's — including SBP's ascending-id traversal
    and uniform pairing, which the historical descending-degree V* order
    silently broke (the pre-engine hybrid at fraction 1.0 walked
    vertices in degree order, so it was *not* bit-identical to SBP).
    """
    fraction = config.vstar_fraction
    if fraction >= 1.0:
        return SweepPlan(
            (SweepSegment(AllVertices(), SegmentMode.SERIAL_INPLACE),),
            name="h-sbp",
        )
    return SweepPlan(
        (
            SweepSegment(DegreeTop(fraction), SegmentMode.SERIAL_INPLACE),
            SweepSegment(DegreeBand(fraction, 1.0), SegmentMode.FROZEN_PARALLEL),
        ),
        name="h-sbp",
    )


def _tiered_plan(config: SBPConfig) -> SweepPlan:
    """Three-tier hybrid (paper §6): serial top, batched middle, frozen tail.

    The top ``vstar_fraction`` of vertices by degree move serially
    against fresh state; the middle band up to ``tier_split`` is frozen
    but re-synchronized every ``num_batches`` barriers (B-SBP-style
    reduced staleness for the moderately influential vertices); the
    low-degree tail is one fully parallel frozen pass. Expressible only
    as a plan — no pre-engine sweep function composed all three modes.
    """
    f1 = config.vstar_fraction
    f2 = max(f1, config.tier_split)
    return SweepPlan(
        (
            SweepSegment(DegreeTop(f1), SegmentMode.SERIAL_INPLACE),
            SweepSegment(
                DegreeBand(f1, f2), SegmentMode.FROZEN_PARALLEL,
                batches=config.num_batches,
            ),
            SweepSegment(DegreeBand(f2, 1.0), SegmentMode.FROZEN_PARALLEL),
        ),
        name="tiered",
    )


register_variant(VariantSpec(
    name="sbp",
    summary="serial Metropolis-Hastings, fully fresh state (Alg. 2)",
    build_plan=_sbp_plan,
))
register_variant(VariantSpec(
    name="a-sbp",
    summary="asynchronous Gibbs, one frozen pass + one barrier (Alg. 3)",
    build_plan=_asbp_plan,
))
register_variant(VariantSpec(
    name="b-sbp",
    summary="batched async Gibbs, num_batches barriers per sweep (§6)",
    build_plan=_bsbp_plan,
))
register_variant(VariantSpec(
    name="h-sbp",
    summary="hybrid: serial top-degree V*, frozen V- (Alg. 4)",
    build_plan=_hsbp_plan,
))
register_variant(VariantSpec(
    name="tiered",
    summary="three-tier hybrid: serial top, batched middle, frozen tail (§6)",
    build_plan=_tiered_plan,
))
