"""Incremental update engine: bit-identical to the rebuild oracle.

The load-bearing properties:

* :func:`apply_sweep_delta` leaves ``B``/degrees/assignment byte-equal
  to a full O(E) recount for any moved set — including self-loops,
  parallel edges, edges between two moved vertices, and moves that
  empty a block;
* full runs under ``update_strategy='incremental'`` reproduce the
  ``'rebuild'`` oracle bit-identically: MDL trajectories, per-sweep
  acceptance counts, and final assignments, for every variant;
* checkpoint resume of an incremental run stays bit-identical, and a
  digest mismatch on ``update_strategy`` is rejected cleanly;
* boundary uniforms (exactly 1.0) can no longer index out of range.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Blockmodel, Graph, SBPConfig, run_sbp
from repro.errors import BackendError, CheckpointError, ConvergenceError
from repro.mcmc.async_gibbs import async_gibbs_sweep
from repro.parallel.backend import (
    available_update_strategies,
    get_update_strategy,
)
from repro.parallel.vectorized import VectorizedBackend
from repro.resilience import RunCheckpointer
from repro.resilience.checkpoint import config_digest
from repro.sbm.incremental import (
    IncrementalUpdater,
    RebuildUpdater,
    apply_sweep_delta,
)
from repro.sbm.moves import _uniform_other, propose_vertex_move
from repro.utils.rng import SweepRandomness

_FAST = dict(max_sweeps=8)


def _assert_same_state(a: Blockmodel, b: Blockmodel) -> None:
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.d_out, b.d_out)
    assert np.array_equal(a.d_in, b.d_in)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.assignment, b.assignment)


def _loopy_graph() -> Graph:
    """12 vertices with self-loops, parallel edges, and a dense core.

    Every pathological shape the delta kernel must count exactly once:
    vertex 0 has two self-loops, 1 -> 2 is doubled, and the core
    {0, 1, 2, 3} is strongly connected so any moved set containing two
    of them exercises moved-moved edges.
    """
    edges = np.array(
        [
            [0, 0], [0, 0], [0, 1], [1, 0], [1, 2], [1, 2], [2, 3],
            [3, 0], [2, 0], [3, 1], [4, 0], [4, 5], [5, 6], [6, 4],
            [7, 8], [8, 9], [9, 7], [10, 11], [11, 10], [5, 5],
            [2, 10], [9, 3],
        ],
        dtype=np.int64,
    )
    return Graph(12, edges)


# ----------------------------------------------------------------------
# Kernel: apply_sweep_delta vs full recount
# ----------------------------------------------------------------------
class TestApplySweepDelta:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_blocks", [2, 4, 7])
    def test_random_batches_match_rebuild(self, seed, num_blocks):
        graph = _loopy_graph()
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, num_blocks, graph.num_vertices)
        bm = Blockmodel.from_assignment(graph, assignment, num_blocks)
        for _ in range(10):
            size = int(rng.integers(0, graph.num_vertices + 1))
            moved = rng.choice(graph.num_vertices, size=size, replace=False)
            targets = rng.integers(0, num_blocks, size)
            oracle = bm.copy()
            new_assignment = oracle.assignment.copy()
            new_assignment[moved] = targets
            oracle.rebuild(graph, new_assignment)

            apply_sweep_delta(bm, graph, moved, targets)
            _assert_same_state(bm, oracle)
            bm.check_consistency(graph)

    def test_moved_moved_edges_and_self_loops(self):
        graph = _loopy_graph()
        bm = Blockmodel.singleton(graph)
        # Move the whole strongly connected core at once: every core edge
        # (including the doubled ones and 0's two self-loops) has both
        # endpoints in the moved set.
        moved = np.array([0, 1, 2, 3], dtype=np.int64)
        targets = np.array([5, 5, 6, 6], dtype=np.int64)
        oracle = bm.copy()
        new_assignment = oracle.assignment.copy()
        new_assignment[moved] = targets
        oracle.rebuild(graph, new_assignment)
        apply_sweep_delta(bm, graph, moved, targets)
        _assert_same_state(bm, oracle)

    def test_emptying_a_block_is_exact(self, tiny_graph):
        bm = Blockmodel.from_assignment(
            tiny_graph, np.array([0, 0, 0, 0, 1, 1, 1, 2]), 3
        )
        # Move vertex 7 out of block 2, leaving it empty.
        apply_sweep_delta(
            bm, tiny_graph,
            np.array([7], dtype=np.int64), np.array([1], dtype=np.int64),
        )
        assert bm.block_sizes()[2] == 0
        bm.check_consistency(tiny_graph)

    def test_empty_moved_set_is_a_noop(self, tiny_graph):
        bm = Blockmodel.singleton(tiny_graph)
        before = bm.copy()
        empty = np.empty(0, dtype=np.int64)
        apply_sweep_delta(bm, tiny_graph, empty, empty)
        _assert_same_state(bm, before)

    def test_scratch_mask_path_matches_isin_path(self):
        graph = _loopy_graph()
        rng = np.random.default_rng(9)
        assignment = rng.integers(0, 5, graph.num_vertices)
        a = Blockmodel.from_assignment(graph, assignment, 5)
        b = a.copy()
        moved = np.array([0, 2, 5, 9], dtype=np.int64)
        targets = np.array([4, 1, 0, 2], dtype=np.int64)
        scratch = np.zeros(graph.num_vertices, dtype=bool)
        apply_sweep_delta(a, graph, moved, targets, scratch_mask=scratch)
        apply_sweep_delta(b, graph, moved, targets)
        _assert_same_state(a, b)
        assert not scratch.any()  # restored for reuse

    def test_blockmodel_method_delegates(self, tiny_graph):
        bm = Blockmodel.singleton(tiny_graph)
        oracle = bm.copy()
        moved = np.array([1, 4], dtype=np.int64)
        targets = np.array([0, 5], dtype=np.int64)
        bm.apply_sweep_delta(tiny_graph, moved, targets)
        apply_sweep_delta(oracle, tiny_graph, moved, targets)
        _assert_same_state(bm, oracle)

    def test_misaligned_inputs_rejected(self, tiny_graph):
        bm = Blockmodel.singleton(tiny_graph)
        with pytest.raises(ValueError, match="aligned"):
            apply_sweep_delta(
                bm, tiny_graph,
                np.array([1, 2], dtype=np.int64), np.array([0], dtype=np.int64),
            )


# ----------------------------------------------------------------------
# Sweep-level equivalence (async barrier)
# ----------------------------------------------------------------------
class TestSweepBarrierEquivalence:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_async_sweep_incremental_matches_legacy(self, medium_graph, seed):
        graph, _ = medium_graph
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 10, graph.num_vertices)
        legacy = Blockmodel.from_assignment(graph, assignment, 10)
        inc = legacy.copy()
        reb = legacy.copy()
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        backend = VectorizedBackend()
        inc_updater = IncrementalUpdater()
        reb_updater = RebuildUpdater()
        for sweep in range(4):
            rand = SweepRandomness.draw(seed, 2, sweep, graph.num_vertices)
            s_legacy = async_gibbs_sweep(
                legacy, graph, vertices, rand, 3.0, backend
            )
            s_inc = async_gibbs_sweep(
                inc, graph, vertices, rand, 3.0, backend, updater=inc_updater
            )
            s_reb = async_gibbs_sweep(
                reb, graph, vertices, rand, 3.0, backend, updater=reb_updater
            )
            assert s_legacy.accepted == s_inc.accepted == s_reb.accepted
            assert s_inc.barrier_moved == s_inc.accepted
            _assert_same_state(legacy, inc)
            _assert_same_state(legacy, reb)
        inc.check_consistency(graph)


# ----------------------------------------------------------------------
# Full-run equivalence: the acceptance criterion
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestRunEquivalence:
    @pytest.mark.parametrize("variant", ["sbp", "a-sbp", "h-sbp", "b-sbp"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_incremental_run_is_bit_identical(self, planted_graph, variant, seed):
        graph, _ = planted_graph
        base = SBPConfig(
            variant=variant, seed=seed, record_work=True, **_FAST
        )
        oracle = run_sbp(graph, base.replace(update_strategy="rebuild"))
        fast = run_sbp(graph, base.replace(update_strategy="incremental"))

        assert fast.mdl == oracle.mdl
        assert fast.num_blocks == oracle.num_blocks
        assert np.array_equal(fast.assignment, oracle.assignment)
        assert fast.mcmc_sweeps == oracle.mcmc_sweeps
        # MDL trajectory and acceptance counts, sweep by sweep.
        assert [s.delta_mdl for s in fast.sweep_stats] == [
            s.delta_mdl for s in oracle.sweep_stats
        ]
        assert [s.accepted for s in fast.sweep_stats] == [
            s.accepted for s in oracle.sweep_stats
        ]
        assert [(c, m) for c, m in fast.search_history] == [
            (c, m) for c, m in oracle.search_history
        ]

    def test_barrier_timing_lands_in_the_right_bucket(self, planted_graph):
        graph, _ = planted_graph
        base = SBPConfig(variant="a-sbp", seed=1, **_FAST)
        inc = run_sbp(graph, base.replace(update_strategy="incremental"))
        reb = run_sbp(graph, base.replace(update_strategy="rebuild"))
        assert inc.timings.barrier_apply > 0.0
        assert inc.timings.barrier_rebuild == 0.0
        assert reb.timings.barrier_rebuild > 0.0
        assert reb.timings.barrier_apply == 0.0
        # Sub-buckets never exceed the umbrella rebuild accumulator.
        assert inc.timings.barrier_apply <= inc.timings.rebuild + 1e-6
        assert reb.timings.barrier_rebuild <= reb.timings.rebuild + 1e-6


# ----------------------------------------------------------------------
# Audit hook
# ----------------------------------------------------------------------
class TestVerifyEvery:
    def test_audited_run_is_unchanged_and_audits_fire(self, medium_graph):
        graph, _ = medium_graph
        rng = np.random.default_rng(2)
        assignment = rng.integers(0, 10, graph.num_vertices)
        plain_bm = Blockmodel.from_assignment(graph, assignment, 10)
        audited_bm = plain_bm.copy()
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        backend = VectorizedBackend()
        plain = IncrementalUpdater()
        audited = IncrementalUpdater(verify_every=2)
        for sweep in range(4):
            rand = SweepRandomness.draw(8, 2, sweep, graph.num_vertices)
            async_gibbs_sweep(
                plain_bm, graph, vertices, rand, 3.0, backend, updater=plain
            )
            async_gibbs_sweep(
                audited_bm, graph, vertices, rand, 3.0, backend, updater=audited
            )
        _assert_same_state(plain_bm, audited_bm)
        assert audited.audits_run == 2
        assert audited.heals == 0

    def test_audit_catches_injected_corruption(self, tiny_graph):
        bm = Blockmodel.singleton(tiny_graph)
        updater = IncrementalUpdater(verify_every=1, self_heal=False)
        bm.B[0, 1] += 3  # drift the counts behind the auditor's back
        with pytest.raises(ConvergenceError):
            updater.apply_sweep(
                bm, tiny_graph,
                np.array([4], dtype=np.int64), np.array([5], dtype=np.int64),
            )

    def test_self_heal_repairs_and_counts(self, tiny_graph):
        bm = Blockmodel.singleton(tiny_graph)
        updater = IncrementalUpdater(verify_every=1, self_heal=True)
        bm.B[0, 1] += 3
        updater.apply_sweep(
            bm, tiny_graph,
            np.array([4], dtype=np.int64), np.array([5], dtype=np.int64),
        )
        assert updater.heals == 1
        bm.check_consistency(tiny_graph)

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError, match="verify_every"):
            IncrementalUpdater(verify_every=-1)


# ----------------------------------------------------------------------
# Registry + config plumbing
# ----------------------------------------------------------------------
class TestDispatch:
    def test_registry_lists_both_engines(self):
        assert {"rebuild", "incremental"} <= set(available_update_strategies())

    def test_factories_produce_the_named_engine(self):
        assert isinstance(get_update_strategy("rebuild"), RebuildUpdater)
        assert isinstance(get_update_strategy("incremental"), IncrementalUpdater)

    def test_unknown_strategy_raises(self):
        with pytest.raises(BackendError, match="unknown update strategy"):
            get_update_strategy("magic")

    def test_config_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="update_strategy"):
            SBPConfig(update_strategy="magic")


# ----------------------------------------------------------------------
# Checkpoint resume across the new knob
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCheckpointAcrossStrategies:
    def test_incremental_resume_is_bit_identical(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        config = SBPConfig(variant="a-sbp", seed=5, **_FAST)
        reference = run_sbp(graph, config)

        ck = RunCheckpointer(tmp_path / "ckpt")
        run_sbp(graph, config.replace(max_outer_iterations=2), checkpointer=ck)
        assert ck.has_snapshot()
        resumed = run_sbp(graph, config, checkpointer=ck)

        assert resumed.mdl == reference.mdl
        assert np.array_equal(resumed.assignment, reference.assignment)

    def test_digest_covers_update_strategy(self):
        a = SBPConfig(seed=1, update_strategy="incremental")
        b = SBPConfig(seed=1, update_strategy="rebuild")
        assert config_digest(a) != config_digest(b)

    def test_strategy_mismatch_rejected_on_resume(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        config = SBPConfig(variant="a-sbp", seed=5, **_FAST)
        ck = RunCheckpointer(tmp_path / "ckpt")
        run_sbp(graph, config.replace(max_outer_iterations=1), checkpointer=ck)
        with pytest.raises(CheckpointError, match="incompatible"):
            run_sbp(
                graph, config.replace(update_strategy="rebuild"),
                checkpointer=ck,
            )


# ----------------------------------------------------------------------
# Boundary uniforms (the clamp bugfix)
# ----------------------------------------------------------------------
class TestBoundaryUniforms:
    def test_degree_zero_vertex_with_unit_uniform(self):
        graph = Graph(3, np.array([[0, 1]], dtype=np.int64))  # vertex 2 isolated
        bm = Blockmodel.singleton(graph)
        ones = np.ones(5, dtype=np.float64)
        s = propose_vertex_move(bm, graph, 2, ones)
        assert 0 <= s < bm.num_blocks

    def test_connected_vertex_with_unit_uniforms(self, tiny_graph):
        bm = Blockmodel.singleton(tiny_graph)
        ones = np.ones(5, dtype=np.float64)
        for v in range(tiny_graph.num_vertices):
            s = propose_vertex_move(bm, tiny_graph, v, ones)
            assert 0 <= s < bm.num_blocks

    def test_uniform_other_at_boundary(self):
        for C in (2, 3, 10):
            for r in range(C):
                s = _uniform_other(C, r, 1.0)
                assert 0 <= s < C and s != r

    def test_vectorized_backend_with_unit_uniforms(self, medium_graph):
        graph, _ = medium_graph
        rng = np.random.default_rng(0)
        bm = Blockmodel.from_assignment(
            graph, rng.integers(0, 5, graph.num_vertices), 5
        )
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        ones = np.ones((graph.num_vertices, 5), dtype=np.float64)
        accepted, targets = VectorizedBackend().evaluate_sweep(
            bm, graph, vertices, ones, 3.0
        )
        assert targets.min() >= 0
        assert targets.max() < bm.num_blocks
