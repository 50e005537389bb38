"""Graph samplers for sampling-based SBP (SamBaS, arXiv:2108.06651).

A sampler picks ``ceil(sample_rate * V)`` vertices from the full graph;
the induced subgraph on that set is what the golden-section SBP search
actually fits. Samplers are registered engines, mirroring the execution
backend / block-storage registries: :func:`register_sampler` adds a
:class:`SamplerSpec`, ``SBPConfig.sampler`` accepts any registered name,
and the CLI renders the registry.

Determinism contract
--------------------
Every sampler draws from its own Philox stream keyed by
``(seed, SAMPLER_PHASE, spec.stream)`` — a pure function of the master
seed, so the sample (and therefore the whole sampled pipeline) replays
bit-identically for a given ``(graph, sampler, seed)`` on any platform.
Samplers never consume the sweep streams (``TAG_STRIDE`` tags), so
adding a sampling front-end cannot perturb the MCMC chain itself.

Isolated-vertex contract
------------------------
Degree-0 vertices must remain *sampleable* and must never be silently
dropped downstream: ``degree-weighted`` smooths its weights by +1 so
isolated vertices keep non-zero inclusion mass (a pure
``weight = degree`` scheme gives them probability zero, which at
``sample_rate = 1.0`` cannot even produce a full sample), and
``expansion-snowball`` re-seeds from the highest-degree unvisited vertex
whenever its frontier dries up, so disconnected components and isolated
vertices are reached once the connected mass is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.graph.transforms import induced_subgraph
from repro.types import Assignment, IntArray
from repro.utils.registry import Registry
from repro.utils.rng import philox_stream

__all__ = [
    "SAMPLER_PHASE",
    "SampledGraph",
    "SamplerSpec",
    "SAMPLERS",
    "register_sampler",
    "get_sampler",
    "available_samplers",
    "sample_size",
    "sample_graph",
]

#: Philox phase namespace for sampler streams. Disjoint from the sweep
#: tags (``iteration * TAG_STRIDE + kind``, small integers) and the
#: best-of spawn tag (0x5EED): sampling randomness can never collide
#: with chain randomness.
SAMPLER_PHASE = 0x5AB5


@dataclass(frozen=True)
class SampledGraph:
    """An induced sample of a graph, with both id maps.

    Attributes
    ----------
    graph:
        The induced subgraph, densely relabeled to ``0..n-1``.
    vertices:
        Ascending full-graph ids; ``vertices[i]`` is the original id of
        sample vertex ``i`` (the sample->full map).
    full_to_sample:
        Length-V inverse map; ``-1`` for unsampled vertices.
    full_num_vertices:
        V of the graph the sample was drawn from.
    sampler:
        Registry name of the sampler that produced this sample.
    """

    graph: Graph
    vertices: IntArray
    full_to_sample: IntArray
    full_num_vertices: int
    sampler: str

    @property
    def num_sampled(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def realized_rate(self) -> float:
        """The rate actually achieved after ceil/clamp (recorded in results)."""
        return self.num_sampled / self.full_num_vertices

    def lift(self, sample_assignment: Assignment) -> Assignment:
        """Map a sample-graph assignment onto the full vertex set.

        Unsampled vertices get ``-1`` — the extension pass
        (:mod:`repro.sampling.extension`) fills them in.
        """
        sample_assignment = np.asarray(sample_assignment, dtype=np.int64)
        if sample_assignment.shape != (self.num_sampled,):
            raise ReproError(
                f"sample assignment must have shape ({self.num_sampled},), "
                f"got {sample_assignment.shape}"
            )
        out = np.full(self.full_num_vertices, -1, dtype=np.int64)
        out[self.vertices] = sample_assignment
        return out


@dataclass(frozen=True)
class SamplerSpec:
    """A named, registered vertex-sampling strategy.

    ``select(graph, size, seed)`` returns exactly ``size`` distinct
    vertex ids in ``[0, V)`` — any order; callers sort. ``stream`` is
    the sampler's private Philox sub-stream id: two samplers given the
    same seed still draw independent randomness, so switching samplers
    re-randomizes the sample instead of aliasing it.
    """

    name: str
    summary: str
    stream: int
    select: Callable[[Graph, int, int], IntArray]


SAMPLERS: Registry[SamplerSpec] = Registry("sampler", ReproError)
get_sampler = SAMPLERS.get
available_samplers = SAMPLERS.names


def register_sampler(spec: SamplerSpec) -> None:
    """Register a sampler; its name becomes a valid ``SBPConfig.sampler``."""
    SAMPLERS.register(spec.name, spec)


def sample_size(num_vertices: int, rate: float) -> int:
    """``ceil(rate * V)`` clamped to ``[1, V]`` — the SamBaS sample size."""
    if not 0.0 < rate <= 1.0:
        raise ReproError(f"sample rate must lie in (0, 1], got {rate}")
    return max(1, min(num_vertices, int(math.ceil(rate * num_vertices))))


def sample_graph(
    graph: Graph, rate: float, sampler: str = "degree-weighted", seed: int = 0
) -> SampledGraph:
    """Draw a deterministic vertex sample and build its induced subgraph."""
    spec = get_sampler(sampler)
    size = sample_size(graph.num_vertices, rate)
    if size >= graph.num_vertices:
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        vertices = np.sort(np.asarray(spec.select(graph, size, seed), dtype=np.int64))
        if vertices.shape != (size,) or np.unique(vertices).shape[0] != size:
            raise ReproError(
                f"sampler {spec.name!r} returned {vertices.shape[0]} vertices "
                f"({np.unique(vertices).shape[0]} distinct); expected {size}"
            )
        if vertices[0] < 0 or vertices[-1] >= graph.num_vertices:
            raise ReproError(f"sampler {spec.name!r} returned out-of-range ids")
    sub, mapping = induced_subgraph(graph, vertices)
    full_to_sample = np.full(graph.num_vertices, -1, dtype=np.int64)
    full_to_sample[mapping] = np.arange(mapping.shape[0], dtype=np.int64)
    return SampledGraph(
        graph=sub,
        vertices=mapping,
        full_to_sample=full_to_sample,
        full_num_vertices=graph.num_vertices,
        sampler=spec.name,
    )


# ----------------------------------------------------------------------
# Built-in samplers
# ----------------------------------------------------------------------
def _uniform_random(graph: Graph, size: int, seed: int) -> IntArray:
    rng = philox_stream(seed, SAMPLER_PHASE, 1)
    return rng.permutation(graph.num_vertices)[:size].astype(np.int64)


def _degree_weighted(graph: Graph, size: int, seed: int) -> IntArray:
    """Weighted sampling without replacement, weight ``degree + 1``.

    Efraimidis-Spirakis reservoir keys: vertex v gets an Exp(w_v)
    variate and the ``size`` smallest keys win — exactly weighted
    sampling without replacement, in one vectorized pass. The +1
    smoothing keeps isolated vertices sampleable (see module docstring).
    """
    rng = philox_stream(seed, SAMPLER_PHASE, 2)
    weights = graph.degree.astype(np.float64) + 1.0
    u = rng.random(graph.num_vertices)
    # -log(1-u) ~ Exp(1); dividing by the weight makes heavy vertices
    # draw small keys more often. log1p(-u) is exact near u = 0.
    keys = -np.log1p(-u) / weights
    order = np.argsort(keys, kind="stable")
    return order[:size].astype(np.int64)


def _expansion_snowball(graph: Graph, size: int, seed: int) -> IntArray:
    """Randomized snowball growth along incident edges.

    Starts from the highest-degree vertex (id tie-break) and repeatedly
    absorbs a uniformly random frontier vertex, pushing its unseen
    neighbours onto the frontier — so on a connected graph the sample is
    connected by construction. When the frontier dries up (component
    exhausted), growth re-seeds at the highest-degree unvisited vertex;
    isolated vertices are therefore reachable and are absorbed last, in
    degree order.
    """
    rng = philox_stream(seed, SAMPLER_PHASE, 3)
    num_vertices = graph.num_vertices
    in_sample = np.zeros(num_vertices, dtype=bool)
    queued = np.zeros(num_vertices, dtype=bool)
    reseed_order = np.argsort(-graph.degree, kind="stable")
    reseed_cursor = 0
    frontier: list[int] = []
    chosen = np.empty(size, dtype=np.int64)
    count = 0

    def absorb(v: int) -> None:
        nonlocal count
        in_sample[v] = True
        chosen[count] = v
        count += 1
        for w in graph.incident_neighbors(v):
            w = int(w)
            if not in_sample[w] and not queued[w]:
                queued[w] = True
                frontier.append(w)

    while count < size:
        if not frontier:
            while in_sample[reseed_order[reseed_cursor]]:
                reseed_cursor += 1
            absorb(int(reseed_order[reseed_cursor]))
            continue
        pick = min(int(rng.random() * len(frontier)), len(frontier) - 1)
        v = frontier[pick]
        frontier[pick] = frontier[-1]
        frontier.pop()
        absorb(v)
    return chosen


register_sampler(SamplerSpec(
    name="uniform-random",
    summary="uniform vertex sample (Philox permutation prefix)",
    stream=1,
    select=_uniform_random,
))
register_sampler(SamplerSpec(
    name="degree-weighted",
    summary="degree+1 weighted sample without replacement "
            "(Efraimidis-Spirakis keys; isolated vertices keep mass)",
    stream=2,
    select=_degree_weighted,
))
register_sampler(SamplerSpec(
    name="expansion-snowball",
    summary="randomized snowball along edges; connected on connected "
            "inputs, re-seeds by degree when the frontier dries up",
    stream=3,
    select=_expansion_snowball,
))
