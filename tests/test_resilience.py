"""Resilience layer: checkpoint/resume, fault tolerance, audits, interrupts.

The load-bearing properties:

* a run killed between agglomerative iterations and resumed from its
  checkpoint reproduces the uninterrupted run bit-identically (all
  randomness is a pure function of ``(seed, phase tag, sweep)``);
* injected worker crashes, hangs and corrupt results are absorbed by
  :class:`ResilientBackend`'s fallback chain without changing results;
* invariant audits catch (and heal) corrupted blockmodel state;
* SIGINT / ``time_budget`` produce best-so-far ``interrupted=True``
  results with a valid checkpoint on disk, never a stack trace.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro import (
    Blockmodel,
    SBPConfig,
    run_best_of,
    run_sbp,
)
from repro.diagnostics import run_health
from repro.errors import (
    BackendError,
    CheckpointError,
    ConvergenceError,
    FaultInjected,
)
from repro.parallel.backend import get_backend
from repro.parallel.serial import SerialBackend
from repro.resilience import (
    ChaosBackend,
    InvariantAuditor,
    ResilientBackend,
    RunCheckpointer,
    StopGuard,
)
from repro.resilience.checkpoint import config_digest
from repro.types import FieldKind
from repro.utils.rng import SweepRandomness

#: Short phases keep full inference runs fast while still exercising
#: several agglomerative iterations on the 80-vertex planted graph.
_FAST = dict(max_sweeps=8)


def _sweep_inputs(graph, seed=0):
    vertices = np.arange(graph.num_vertices, dtype=np.int64)
    rand = SweepRandomness.draw(seed, 1, 0, graph.num_vertices)
    return vertices, rand.uniforms


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCheckpointResume:
    @pytest.mark.parametrize("variant", ["sbp", "a-sbp"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_kill_and_resume_is_bit_identical(
        self, planted_graph, tmp_path, variant, seed
    ):
        """Killed between iterations -> resume == uninterrupted reference."""
        graph, _ = planted_graph
        config = SBPConfig(variant=variant, seed=seed, **_FAST)
        reference = run_sbp(graph, config)

        ck = RunCheckpointer(tmp_path / "ckpt")
        # Simulate the kill deterministically: stop after 2 iterations.
        run_sbp(graph, config.replace(max_outer_iterations=2), checkpointer=ck)
        assert ck.has_snapshot()

        resumed = run_sbp(graph, config, checkpointer=ck)
        np.testing.assert_array_equal(resumed.assignment, reference.assignment)
        assert resumed.mdl == reference.mdl
        assert resumed.num_blocks == reference.num_blocks
        assert resumed.outer_iterations == reference.outer_iterations
        assert resumed.search_history == reference.search_history

    def test_resume_after_time_budget_interrupt(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        config = SBPConfig(seed=5, **_FAST)
        reference = run_sbp(graph, config)

        ck = RunCheckpointer(tmp_path / "ckpt")
        interrupted = run_sbp(
            graph, config.replace(time_budget=0.0), checkpointer=ck
        )
        assert interrupted.interrupted
        assert not interrupted.converged
        assert ck.has_snapshot()

        resumed = run_sbp(graph, config, checkpointer=ck)
        assert not resumed.interrupted
        np.testing.assert_array_equal(resumed.assignment, reference.assignment)
        assert resumed.mdl == reference.mdl

    def test_snapshot_pruning_keeps_last(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt", keep_last=2)
        run_sbp(graph, SBPConfig(seed=1, **_FAST), checkpointer=ck)
        manifests = [
            p for p in os.listdir(tmp_path / "ckpt") if p.endswith(".json")
        ]
        assert len(manifests) == 2

    def test_damaged_latest_snapshot_falls_back(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        config = SBPConfig(seed=7, **_FAST)
        ck = RunCheckpointer(tmp_path / "ckpt", keep_last=3)
        run_sbp(graph, config.replace(max_outer_iterations=3), checkpointer=ck)
        manifests = sorted(
            p
            for p in (tmp_path / "ckpt").iterdir()
            if p.name.endswith(".json")
        )
        # Truncate the newest manifest mid-file: load() must skip it.
        newest = manifests[-1]
        newest.write_text(newest.read_text()[: 40])
        state = ck.load()
        assert state is not None
        assert state.outer < 3 or newest.name != f"state_{state.outer:05d}.json"
        resumed = run_sbp(graph, config, checkpointer=ck)
        np.testing.assert_array_equal(
            resumed.assignment, run_sbp(graph, config).assignment
        )

    def test_all_snapshots_damaged_raises(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt")
        run_sbp(
            graph,
            SBPConfig(seed=2, max_outer_iterations=2, **_FAST),
            checkpointer=ck,
        )
        for manifest in (tmp_path / "ckpt").glob("state_*.json"):
            manifest.write_text("{ not json")
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            ck.load()

    def test_incompatible_config_refused(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt")
        run_sbp(
            graph,
            SBPConfig(seed=2, max_outer_iterations=2, **_FAST),
            checkpointer=ck,
        )
        with pytest.raises(CheckpointError, match="incompatible"):
            run_sbp(graph, SBPConfig(seed=99, **_FAST), checkpointer=ck)

    def test_digest_ignores_backend_choice(self):
        a = SBPConfig(seed=4, backend="serial")
        b = SBPConfig(seed=4, backend="process")
        c = SBPConfig(seed=5, backend="serial")
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_empty_directory_loads_none(self, tmp_path):
        assert RunCheckpointer(tmp_path / "nothing").load() is None


@pytest.mark.slow
class TestBestOfResume:
    def test_completed_members_are_reused(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        config = SBPConfig(seed=9, **_FAST)
        ref_best, ref_all = run_best_of(graph, config, runs=2)

        ck = RunCheckpointer(tmp_path / "bo")
        best1, all1 = run_best_of(graph, config, runs=2, checkpointer=ck)
        np.testing.assert_array_equal(best1.assignment, ref_best.assignment)
        assert [r.mdl for r in all1] == [r.mdl for r in ref_all]
        # Both members persisted; a second invocation is pure replay.
        assert ck.load_completed(0) is not None
        assert ck.load_completed(1) is not None
        best2, all2 = run_best_of(graph, config, runs=2, checkpointer=ck)
        assert best2.mdl == ref_best.mdl
        assert [r.seed for r in all2] == [r.seed for r in ref_all]

    def test_interrupted_member_not_marked_complete(
        self, planted_graph, tmp_path
    ):
        graph, _ = planted_graph
        config = SBPConfig(seed=9, time_budget=0.0, **_FAST)
        ck = RunCheckpointer(tmp_path / "bo")
        best, results = run_best_of(graph, config, runs=3, checkpointer=ck)
        assert results[-1].interrupted
        assert best.interrupted
        assert ck.load_completed(len(results) - 1) is None
        # Resume without the budget finishes the protocol identically.
        ref_best, _ = run_best_of(graph, config.replace(time_budget=None), runs=3)
        resumed_best, resumed = run_best_of(
            graph, config.replace(time_budget=None), runs=3, checkpointer=ck
        )
        assert len(resumed) == 3
        assert resumed_best.mdl == ref_best.mdl
        np.testing.assert_array_equal(
            resumed_best.assignment, ref_best.assignment
        )


# ----------------------------------------------------------------------
# Fault-tolerant backend
# ----------------------------------------------------------------------
class TestResilientBackend:
    def test_crash_falls_back_bit_identically(self, medium_graph):
        graph, _ = medium_graph
        rng = np.random.default_rng(21)
        bm = Blockmodel.from_assignment(
            graph, rng.integers(0, 10, graph.num_vertices), 10
        )
        vertices, uniforms = _sweep_inputs(graph, seed=5)
        a_ref, t_ref = SerialBackend().evaluate_sweep(
            bm, graph, vertices, uniforms, 3.0
        )
        chaos = ChaosBackend(SerialBackend(), {0: "raise"})
        backend = ResilientBackend(chaos, fallbacks=("vectorized",), retries=0)
        a, t = backend.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(t, t_ref)

    def test_retry_recovers_without_fallback(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        vertices, uniforms = _sweep_inputs(graph, seed=2)
        chaos = ChaosBackend(SerialBackend(), {0: "raise"})
        backend = ResilientBackend(chaos, fallbacks=(), retries=1)
        a, t = backend.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        a_ref, t_ref = SerialBackend().evaluate_sweep(
            bm, graph, vertices, uniforms, 3.0
        )
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(t, t_ref)
        assert chaos.calls == 2

    def test_hang_times_out_onto_fallback(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        vertices, uniforms = _sweep_inputs(graph, seed=3)
        chaos = ChaosBackend(SerialBackend(), {0: "hang"}, hang_seconds=5.0)
        backend = ResilientBackend(
            chaos, fallbacks=("serial",), sweep_timeout=0.25, retries=3
        )
        try:
            a, t = backend.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        finally:
            backend.close()  # releases the injected hang promptly
        a_ref, t_ref = SerialBackend().evaluate_sweep(
            bm, graph, vertices, uniforms, 3.0
        )
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(t, t_ref)
        # Hangs must not be retried on the wedged backend.
        assert chaos.calls == 1

    def test_corrupt_result_detected_and_replaced(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        vertices, uniforms = _sweep_inputs(graph, seed=4)
        chaos = ChaosBackend(SerialBackend(), {0: "corrupt"})
        backend = ResilientBackend(chaos, fallbacks=("serial",), retries=0)
        a, t = backend.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        assert int(t.max()) < bm.num_blocks

    def test_exhausted_chain_raises_backend_error(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        vertices, uniforms = _sweep_inputs(graph)
        chaos = ChaosBackend(SerialBackend(), {0: "raise", 1: "raise"})
        backend = ResilientBackend(chaos, fallbacks=(), retries=1)
        with pytest.raises(BackendError, match="chain exhausted"):
            backend.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)

    def test_nesting_rejected(self):
        with pytest.raises(BackendError, match="nest"):
            ResilientBackend("serial", fallbacks=("resilient",))

    def test_spec_string_builds_chain(self):
        backend = get_backend("resilient:serial")
        assert [b.name for b in backend.chain] == ["serial", "vectorized"]
        backend = get_backend("resilient:vectorized")
        assert [b.name for b in backend.chain] == ["vectorized", "serial"]

    def test_unknown_spec_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("bogus:serial")
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("resilient:")

    @pytest.mark.slow
    def test_full_run_with_chaos_matches_serial_oracle(self, planted_graph):
        """Acceptance: crash + hang injected mid-run; fallback completes
        the run and the result matches the fault-free serial oracle."""
        graph, _ = planted_graph
        config = SBPConfig(variant="a-sbp", seed=13, **_FAST)
        reference = run_sbp(graph, config.replace(backend="serial"))

        chaos = ChaosBackend(
            SerialBackend(), {1: "raise", 4: "hang"}, hang_seconds=3.0
        )
        chaotic = config.replace(
            backend="resilient",
            backend_options=dict(
                inner=chaos, fallbacks=("serial",), sweep_timeout=0.5, retries=0
            ),
        )
        result = run_sbp(graph, chaotic)
        assert chaos.calls >= 5  # both faults actually fired
        np.testing.assert_array_equal(result.assignment, reference.assignment)
        assert result.mdl == reference.mdl

    @pytest.mark.parametrize("policy", ["recover", "degrade"])
    def test_wrapped_distributed_run_matches_bare(self, planted_graph, policy):
        """``resilient:`` forwards the stop guard and the wire report, so
        a wrapped run that loses a shard ends exactly like the bare one:
        same interrupt flag, same wire counters, same MDL."""
        graph, _ = planted_graph
        config = SBPConfig(
            variant="a-sbp", seed=1, max_sweeps=6,
            backend_options={"failures": {2: [1]}},
            shard_loss_policy=policy,
        )
        bare = run_sbp(graph, config.replace(backend="distributed:sim:3"))
        wrapped = run_sbp(
            graph, config.replace(backend="resilient:distributed:sim:3")
        )
        assert bare.timings.shard_releases == 1
        assert bare.timings.comm_messages > 0
        assert bare.interrupted is (policy == "degrade")
        assert wrapped.interrupted is bare.interrupted
        counters = (FieldKind.COUNTER,)
        assert wrapped.timings.only(*counters) == bare.timings.only(*counters)
        assert wrapped.mdl == bare.mdl


# ----------------------------------------------------------------------
# Fault injection harness
# ----------------------------------------------------------------------
class TestChaosBackend:
    def test_raise_fault(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        vertices, uniforms = _sweep_inputs(graph)
        chaos = ChaosBackend(SerialBackend(), {0: "raise"})
        with pytest.raises(FaultInjected):
            chaos.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        # FaultInjected is a BackendError, so real handlers catch it too.
        assert issubclass(FaultInjected, BackendError)

    def test_passthrough_between_faults(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        vertices, uniforms = _sweep_inputs(graph)
        chaos = ChaosBackend(SerialBackend(), {1: "raise"})
        a, t = chaos.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        a_ref, t_ref = SerialBackend().evaluate_sweep(
            bm, graph, vertices, uniforms, 3.0
        )
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(t, t_ref)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            ChaosBackend(SerialBackend(), {0: "segfault"})


# ----------------------------------------------------------------------
# Invariant auditing
# ----------------------------------------------------------------------
class TestInvariantAuditor:
    def test_corrupted_B_is_caught_and_healed(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        bm.B[0, 0] += 7  # deliberate corruption
        auditor = InvariantAuditor(cadence=1, self_heal=True)
        healed = auditor.audit(bm, graph, iteration=1)
        assert healed
        assert auditor.heals == 1
        bm.check_consistency(graph)  # state repaired

    def test_corruption_without_self_heal_raises_diagnosed(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        bm.B[0, 0] += 7
        auditor = InvariantAuditor(cadence=1, self_heal=False)
        with pytest.raises(ConvergenceError, match="invariant audit failed"):
            auditor.audit(bm, graph, iteration=3)

    def test_clean_state_passes(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        auditor = InvariantAuditor(cadence=2)
        assert auditor.audit(bm, graph, iteration=2) is False
        assert auditor.heals == 0

    def test_cadence(self):
        auditor = InvariantAuditor(cadence=3)
        assert [i for i in range(1, 10) if auditor.due(i)] == [3, 6, 9]
        assert not InvariantAuditor(cadence=0).due(4)

    def test_nan_mdl_healed_by_rebuild(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        bm.B[0, 0] = -50  # drives x log x to NaN territory
        auditor = InvariantAuditor()
        value = auditor.guard_mdl(float("nan"), bm, graph, iteration=2)
        assert np.isfinite(value)
        assert auditor.heals == 1
        assert value == bm.mdl(graph)

    def test_unhealable_nan_raises_diagnosed(self, medium_graph, monkeypatch):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        auditor = InvariantAuditor()
        monkeypatch.setattr(Blockmodel, "mdl", lambda self, g: float("nan"))
        with pytest.raises(ConvergenceError, match="non-finite MDL"):
            auditor.guard_mdl(float("nan"), bm, graph, iteration=2)

    def test_finite_mdl_passes_through_untouched(self, medium_graph):
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        auditor = InvariantAuditor()
        assert auditor.guard_mdl(123.5, bm, graph, 1) == 123.5
        assert auditor.heals == 0

    @pytest.mark.slow
    def test_audited_run_is_bit_identical_to_unaudited(self, planted_graph):
        graph, _ = planted_graph
        config = SBPConfig(seed=6, **_FAST)
        plain = run_sbp(graph, config)
        audited = run_sbp(graph, config.replace(audit_cadence=1))
        np.testing.assert_array_equal(audited.assignment, plain.assignment)
        assert audited.mdl == plain.mdl


# ----------------------------------------------------------------------
# Interruption
# ----------------------------------------------------------------------
class TestStopGuard:
    def test_time_budget_triggers(self):
        guard = StopGuard(time_budget=0.0)
        assert guard.triggered
        assert "budget" in (guard.reason or "")

    def test_no_budget_never_triggers(self):
        guard = StopGuard()
        assert not guard.triggered
        guard.trigger("manual")
        assert guard.triggered
        assert guard.reason == "manual"

    def test_sigint_is_intercepted_once(self):
        guard = StopGuard()
        with guard.install():
            os.kill(os.getpid(), signal.SIGINT)
            # The handler latches the guard instead of raising.
            assert guard.triggered
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
        # Original disposition restored on exit.
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_install_from_worker_thread_is_noop(self):
        guard = StopGuard()
        seen = []

        def _run():
            with guard.install():
                seen.append(signal.getsignal(signal.SIGINT))

        thread = threading.Thread(target=_run)
        thread.start()
        thread.join()
        assert seen == [signal.default_int_handler]

    @pytest.mark.slow
    def test_sigint_mid_run_returns_best_so_far(self, medium_graph, tmp_path):
        graph, _ = medium_graph
        # A deliberately long search so the timer fires mid-run.
        config = SBPConfig(
            variant="a-sbp", seed=8, max_sweeps=60,
            mcmc_threshold=1e-9, mcmc_threshold_final=1e-9,
        )
        ck = RunCheckpointer(tmp_path / "ckpt")
        timer = threading.Timer(
            0.3, os.kill, args=(os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            result = run_sbp(graph, config, checkpointer=ck)
        finally:
            timer.cancel()
        assert result.interrupted
        assert not result.converged
        assert result.num_blocks >= 1
        assert np.isfinite(result.mdl)
        assert ck.has_snapshot()
        health = run_health(result)
        assert not health["ok"]
        assert any("interrupted" in p for p in health["problems"])


# ----------------------------------------------------------------------
# Health report
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestRunHealth:
    def test_healthy_run(self, planted_graph):
        graph, _ = planted_graph
        result = run_sbp(graph, SBPConfig(seed=6, **_FAST))
        health = run_health(result)
        assert health["ok"]
        assert health["converged"] and not health["interrupted"]
        assert health["problems"] == []

    def test_interrupted_run_flagged(self, planted_graph):
        graph, _ = planted_graph
        result = run_sbp(graph, SBPConfig(seed=6, time_budget=0.0, **_FAST))
        health = run_health(result)
        assert not health["ok"]
        assert health["interrupted"]
