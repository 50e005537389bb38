"""The windowed serial Metropolis kernel replays the per-vertex chain.

:func:`~repro.mcmc.metropolis.metropolis_sweep` scores windows of the
serial order with the batch kernel against the live blockmodel and
commits each window's first accepted move. The reference here is the
loop it replaced — :func:`~repro.mcmc.evaluate.evaluate_vertex`, then
:meth:`~repro.sbm.blockmodel.Blockmodel.apply_move`, vertex by vertex.
After every sweep the assignment, ``B``, the degree vectors and the
:class:`~repro.types.SweepStats` must be byte-equal, on all three
storage engines and across inverse temperatures.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.mcmc import metropolis
from repro.mcmc.evaluate import evaluate_vertex
from repro.mcmc.metropolis import WINDOW, metropolis_sweep
from repro.parallel.vectorized import VectorizedBackend
from repro.sbm.blockmodel import Blockmodel
from repro.types import SweepStats
from repro.utils.rng import SweepRandomness

STORAGES = ("dense", "sparse", "hybrid")
BETAS = (0.5, 3.0, 50.0)
SWEEPS = 3


def reference_sweep(
    bm: Blockmodel,
    graph: Graph,
    vertices: np.ndarray,
    randomness: SweepRandomness,
    beta: float,
) -> tuple[SweepStats, list[int]]:
    """The per-vertex serial loop; also returns the moved positions."""
    moved: list[int] = []
    work = np.zeros(len(vertices), dtype=np.int64)
    for i, v in enumerate(vertices):
        v = int(v)
        decision = evaluate_vertex(bm, graph, v, randomness.uniforms[i], beta)
        work[i] = int(graph.degree[v]) + 1
        if decision.is_move:
            ctx = decision.context
            bm.apply_move(
                v, decision.target, ctx.t_out, ctx.c_out, ctx.t_in, ctx.c_in,
                ctx.loops, ctx.deg_out, ctx.deg_in,
            )
            moved.append(i)
    stats = SweepStats(
        proposals=len(vertices),
        accepted=len(moved),
        serial_work=float(work.sum()),
        parallel_work=0.0,
        work_per_vertex=work,
    )
    return stats, moved


def _assert_same(window_bm, window_stats, ref_bm, ref_stats) -> None:
    np.testing.assert_array_equal(window_bm.assignment, ref_bm.assignment)
    np.testing.assert_array_equal(window_bm.state.to_dense(), ref_bm.state.to_dense())
    np.testing.assert_array_equal(window_bm.d_out, ref_bm.d_out)
    np.testing.assert_array_equal(window_bm.d_in, ref_bm.d_in)
    np.testing.assert_array_equal(window_bm.d, ref_bm.d)
    assert window_stats.proposals == ref_stats.proposals
    assert window_stats.accepted == ref_stats.accepted
    assert window_stats.serial_work == ref_stats.serial_work
    assert window_stats.parallel_work == ref_stats.parallel_work
    np.testing.assert_array_equal(
        window_stats.work_per_vertex, ref_stats.work_per_vertex
    )
    assert window_stats.work_per_vertex.dtype == ref_stats.work_per_vertex.dtype


def _replay(graph, assignment, num_blocks, storage, vertices, beta, seed) -> int:
    """Run both kernels side by side; return the total accepted moves."""
    window_bm = Blockmodel.from_assignment(
        graph, assignment, num_blocks, storage=storage
    )
    ref_bm = Blockmodel.from_assignment(
        graph, assignment, num_blocks, storage=storage
    )
    accepted = 0
    for sweep in range(SWEEPS):
        rand = SweepRandomness.draw(seed, 1, sweep, len(vertices))
        window_stats = metropolis_sweep(
            window_bm, graph, vertices, rand, beta, record_work=True
        )
        ref_stats, _ = reference_sweep(ref_bm, graph, vertices, rand, beta)
        _assert_same(window_bm, window_stats, ref_bm, ref_stats)
        accepted += ref_stats.accepted
    window_bm.check_consistency(graph)
    return accepted


def _multigraph(num_vertices: int, num_edges: int, isolated: int, seed: int) -> Graph:
    """Random multigraph with self-loops, parallel edges and isolated tail."""
    rng = np.random.default_rng(seed)
    live = num_vertices - isolated
    edges = rng.integers(0, live, size=(num_edges, 2))
    loops = rng.random(num_edges) < 0.05
    edges[loops, 1] = edges[loops, 0]
    dup = rng.choice(num_edges, size=num_edges // 10, replace=False)
    edges = np.concatenate([edges, edges[dup]])
    return Graph(num_vertices, edges)


@pytest.fixture(scope="module")
def loopy() -> Graph:
    """V=150: self-loops, parallel edges, five isolated vertices."""
    return _multigraph(150, 600, isolated=5, seed=41)


def _segments(graph: Graph) -> dict[str, np.ndarray]:
    order = np.argsort(-graph.degree, kind="stable").astype(np.int64)
    return {
        # three windows, the last one short, ascending ids (SBP)
        "all": np.arange(graph.num_vertices, dtype=np.int64),
        # shorter than one window, descending degree (H-SBP's V*)
        "top": order[:23],
        # several windows in an arbitrary order, isolated vertices included
        "shuffled": np.random.default_rng(2).permutation(graph.num_vertices),
    }


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("beta", BETAS)
class TestAgainstPerVertexLoop:
    @pytest.mark.parametrize("segment", ["all", "top", "shuffled"])
    def test_random_state(self, loopy, storage, beta, segment):
        rng = np.random.default_rng(9)
        assignment = rng.integers(0, 12, loopy.num_vertices)
        vertices = _segments(loopy)[segment]
        _replay(loopy, assignment, 12, storage, vertices, beta, seed=31)

    def test_singleton_start_empties_blocks(self, loopy, storage, beta):
        """Every move out of a singleton block empties it (SBP's start)."""
        assignment = np.arange(loopy.num_vertices, dtype=np.int64)
        vertices = _segments(loopy)["all"]
        accepted = _replay(
            loopy, assignment, loopy.num_vertices, storage, vertices, beta,
            seed=17,
        )
        assert accepted > 0

    @pytest.mark.parametrize("num_blocks", [1, 2])
    def test_few_blocks(self, loopy, storage, beta, num_blocks):
        assignment = np.arange(loopy.num_vertices, dtype=np.int64) % num_blocks
        vertices = _segments(loopy)["shuffled"]
        accepted = _replay(
            loopy, assignment, num_blocks, storage, vertices, beta, seed=5
        )
        if num_blocks == 1:
            assert accepted == 0

    def test_planted_state(self, medium_graph, storage, beta):
        graph, truth = medium_graph
        vertices = _segments(graph)["all"]
        num_blocks = int(truth.max()) + 1
        _replay(graph, truth, num_blocks, storage, vertices, beta, seed=3)


def _forced_table(bm: Blockmodel, vertices: np.ndarray, accept: set[int],
                  seed: int) -> SweepRandomness:
    """Uniforms that reject every position except those in ``accept``.

    A rejected row has accept-uniform 1.0 (never below p). An accepted
    row proposes the uniform block after its current one and draws 0.0.
    """
    uniforms = SweepRandomness.draw(seed, 1, 0, len(vertices)).uniforms.copy()
    C = bm.num_blocks
    uniforms[:, 4] = 1.0
    for i in accept:
        r = int(bm.assignment[vertices[i]])
        uniforms[i, 1] = 0.0
        uniforms[i, 3] = (((r + 1) % C) + 0.5) / C
        uniforms[i, 4] = 0.0
    return SweepRandomness(uniforms=uniforms)


@pytest.mark.parametrize("storage", STORAGES)
def test_first_accept_at_window_edges_and_segment_end(loopy, storage):
    """Accepts at window positions 63 and 0, and on the last vertex."""
    vertices = np.arange(loopy.num_vertices, dtype=np.int64)
    count = len(vertices)
    accept = {WINDOW - 1, WINDOW, count - 1}
    rng = np.random.default_rng(4)
    assignment = rng.integers(0, 6, loopy.num_vertices)
    ref_bm = Blockmodel.from_assignment(loopy, assignment, 6, storage=storage)
    window_bm = Blockmodel.from_assignment(loopy, assignment, 6, storage=storage)
    table = _forced_table(ref_bm, vertices, accept, seed=8)

    calls: list[tuple[int, int]] = []
    original = VectorizedBackend.evaluate_sweep

    def spy(self, bm, graph, window, uniforms, beta):
        calls.append((int(window[0]), len(window)))
        return original(self, bm, graph, window, uniforms, beta)

    with mock.patch.object(VectorizedBackend, "evaluate_sweep", spy):
        window_stats = metropolis_sweep(
            window_bm, loopy, vertices, table, 0.5, record_work=True
        )
    ref_stats, moved = reference_sweep(ref_bm, loopy, vertices, table, 0.5)
    assert moved == sorted(accept)
    _assert_same(window_bm, window_stats, ref_bm, ref_stats)
    # 0..63 commits at position 63; 64.. commits at position 0; then
    # full windows to the end, whose last vertex commits.
    starts = [start for start, _ in calls]
    assert starts[:3] == [0, WINDOW, WINDOW + 1]
    assert calls[-1][0] + calls[-1][1] == count
    assert len(calls) == 2 + -(-(count - WINDOW - 1) // WINDOW)


def test_empty_segment(loopy):
    bm = Blockmodel.singleton(loopy)
    before = bm.state.to_dense().copy()
    rand = SweepRandomness.draw(1, 1, 0, 0)
    stats = metropolis_sweep(
        bm, loopy, np.empty(0, dtype=np.int64), rand, 3.0, record_work=True
    )
    assert stats.proposals == stats.accepted == 0
    assert stats.serial_work == 0.0
    np.testing.assert_array_equal(bm.state.to_dense(), before)


@settings(max_examples=60, deadline=None)
@given(
    num_vertices=st.integers(2, 90),
    density=st.floats(0.2, 4.0),
    num_blocks=st.integers(1, 12),
    storage=st.sampled_from(STORAGES),
    beta=st.sampled_from(BETAS),
    window=st.sampled_from([1, 2, 5, WINDOW]),
    seed=st.integers(0, 2**16),
)
def test_random_multigraphs(
    num_vertices, density, num_blocks, storage, beta, window, seed
):
    """Exact for any window size: windows only change which calls score."""
    rng = np.random.default_rng(seed)
    num_edges = max(1, int(density * num_vertices))
    graph = _multigraph(
        num_vertices, num_edges, isolated=int(rng.integers(0, 2)), seed=seed
    )
    num_blocks = min(num_blocks, num_vertices)
    assignment = rng.integers(0, num_blocks, num_vertices)
    vertices = rng.permutation(num_vertices)[: int(rng.integers(1, num_vertices + 1))]
    with mock.patch.object(metropolis, "WINDOW", window):
        _replay(
            graph, assignment, num_blocks, storage,
            vertices.astype(np.int64), beta, seed=seed,
        )
