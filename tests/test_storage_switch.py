"""``auto`` storage follows the block count C, not the vertex count V.

A fit resolves ``auto`` at every state it builds: the singleton start
(C = V), each merge output, the warm start and a stream's carried state.
A large sparse graph therefore starts on ``hybrid`` and runs ``dense``
once the merges have shrunk C. The engines are bit-identical, so a fit
that switches must equal a fit that never does, byte for byte.

The fit tests lower the small-dense threshold so that a V=200 graph
starts on hybrid (the graph is sparse enough, E / V² < 0.05, that the
density rule keeps it there); one slow case runs the real threshold at
V=2100.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import Blockmodel, DCSBMParams, SBPConfig, generate_dcsbm, run_sbp
from repro.cli import main
from repro.core import fit_session, sbp
from repro.core.fit_session import FitSession
from repro.core.merge import block_merge_phase
from repro.errors import BackendError
from repro.resilience.checkpoint import RunCheckpointer
from repro.sbm import block_storage
from repro.sbm.block_storage import (
    AUTO_STORAGE,
    STORAGE_BUDGET_ENV,
    resolve_block_storage,
)
from repro.streaming import StreamSession, synthetic_churn_stream

#: Dense only at C <= 150 while the patch is active.
PATCHED_SMALL_DENSE = 8 * 150 * 150


@pytest.fixture
def small_dense_150(monkeypatch):
    monkeypatch.setattr(block_storage, "_SMALL_DENSE_BYTES", PATCHED_SMALL_DENSE)


@pytest.fixture(scope="module")
def sparse_graph():
    graph, _ = generate_dcsbm(
        DCSBMParams(
            num_vertices=200, num_communities=4, within_between_ratio=8.0,
            mean_degree=5.0, d_max=20,
        ),
        seed=5,
    )
    assert graph.num_edges / graph.num_vertices**2 < 0.05
    return graph


@pytest.fixture
def merge_spy(monkeypatch):
    """Record the engine of every merge output a fit builds."""
    engines: list[str] = []
    inner = fit_session.block_merge_phase

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        engines.append(out.storage_name)
        return out

    monkeypatch.setattr(fit_session, "block_merge_phase", spy)
    return engines


def assert_same_fit(a, b):
    assert_array_equal(a.assignment, b.assignment)
    assert a.mdl == b.mdl
    assert a.search_history == b.search_history
    assert a.mcmc_sweeps == b.mcmc_sweeps
    assert a.outer_iterations == b.outer_iterations


class TestRule:
    def test_boundary_at_32_mib(self):
        # 8 * 2048^2 B is exactly the 32 MiB small-dense threshold.
        assert resolve_block_storage(AUTO_STORAGE, 2048, 5 * 2048)[0] == "dense"
        assert resolve_block_storage(AUTO_STORAGE, 2049, 5 * 2049)[0] == "hybrid"

    @pytest.mark.parametrize("num_blocks", [1, 2, 2048, 2049, 10**5])
    @pytest.mark.parametrize("name", ["dense", "sparse", "hybrid"])
    def test_explicit_names_pass_through_at_every_c(self, name, num_blocks):
        assert resolve_block_storage(name, num_blocks, 10 * num_blocks) == (
            name, "explicit",
        )

    @pytest.mark.usefixtures("small_dense_150")
    def test_blockmodel_resolves_at_the_block_count_it_builds(self, sparse_graph):
        graph = sparse_graph
        singleton = np.arange(graph.num_vertices, dtype=np.int64)
        bm = Blockmodel.from_assignment(graph, singleton, storage=AUTO_STORAGE)
        assert bm.storage_name == "hybrid"
        bm = Blockmodel.from_assignment(graph, singleton // 2, storage=AUTO_STORAGE)
        assert (bm.num_blocks, bm.storage_name) == (100, "dense")

    def test_merge_output_follows_the_storage_name(self, sparse_graph):
        """The merge output's engine comes from the storage name, not
        from the engine of the state it merged."""
        graph = sparse_graph
        bm = Blockmodel.singleton(graph, storage="hybrid")
        config = SBPConfig(seed=1, block_storage="dense")
        out = block_merge_phase(bm, graph, 100, config, iteration=1)
        assert out.storage_name == "dense"
        out = block_merge_phase(bm, graph, 100, config, iteration=1, storage="sparse")
        assert out.storage_name == "sparse"


class TestBudgetVariable:
    @pytest.mark.parametrize("value", ["512MiB", "-5", "", "1e9"])
    def test_malformed_budget_raises(self, monkeypatch, value):
        monkeypatch.setenv(STORAGE_BUDGET_ENV, value)
        with pytest.raises(BackendError) as info:
            resolve_block_storage(AUTO_STORAGE, 100, 500)
        assert STORAGE_BUDGET_ENV in str(info.value)
        assert repr(value) in str(info.value)

    def test_explicit_names_never_read_the_budget(self, monkeypatch):
        monkeypatch.setenv(STORAGE_BUDGET_ENV, "512MiB")
        assert resolve_block_storage("hybrid", 100, 500)[0] == "hybrid"

    @pytest.mark.parametrize("value", ["512MiB", "-5"])
    def test_cli_prints_one_error_line(self, monkeypatch, tmp_path, capsys, value):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        monkeypatch.setenv(STORAGE_BUDGET_ENV, value)
        assert main(["detect", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and STORAGE_BUDGET_ENV in lines[0]


@pytest.mark.usefixtures("small_dense_150")
class TestFitCrossesTheThreshold:
    @pytest.mark.parametrize("variant", ["a-sbp", "h-sbp"])
    def test_auto_equals_both_engines(self, sparse_graph, merge_spy, variant):
        graph = sparse_graph
        auto = run_sbp(graph, SBPConfig(variant=variant, seed=3))
        assert auto.block_storage == "hybrid"
        assert merge_spy and set(merge_spy) == {"dense"}
        merge_spy.clear()
        for name in ("hybrid", "dense"):
            explicit = run_sbp(
                graph, SBPConfig(variant=variant, seed=3, block_storage=name)
            )
            assert set(merge_spy) == {name}
            merge_spy.clear()
            assert explicit.block_storage == name
            assert_same_fit(auto, explicit)

    def test_warm_refit_runs_on_the_engine_at_the_warm_c(
        self, sparse_graph, monkeypatch
    ):
        graph = sparse_graph
        fit = run_sbp(graph, SBPConfig(variant="a-sbp", seed=3, block_storage="dense"))
        phases: list[str] = []
        inner = sbp.run_mcmc_phase

        def spy(bm, *args, **kwargs):
            phases.append(bm.storage_name)
            return inner(bm, *args, **kwargs)

        monkeypatch.setattr(sbp, "run_mcmc_phase", spy)
        refits = {}
        for storage, warm_storage in (
            (AUTO_STORAGE, "hybrid"), ("hybrid", "dense"), ("dense", "dense"),
        ):
            phases.clear()
            warm = Blockmodel.from_assignment(
                graph, fit.assignment, fit.num_blocks, storage=warm_storage
            )
            config = SBPConfig(variant="a-sbp", seed=4, block_storage=storage)
            refits[storage] = FitSession(graph, config).warm_refit(warm)
            assert warm.storage_name == warm_storage
            assert set(phases) == {"dense" if storage == AUTO_STORAGE else storage}
        assert_same_fit(refits[AUTO_STORAGE], refits["hybrid"])
        assert_same_fit(refits[AUTO_STORAGE], refits["dense"])

    @pytest.mark.parametrize(
        "stop_after, resume_storage",
        [(0, AUTO_STORAGE), (2, AUTO_STORAGE), (2, "hybrid")],
    )
    def test_resume_across_the_switch(
        self, sparse_graph, tmp_path, stop_after, resume_storage
    ):
        graph = sparse_graph
        config = SBPConfig(variant="a-sbp", seed=11)
        reference = run_sbp(graph, config)
        ck = RunCheckpointer(tmp_path / "ckpt")
        run_sbp(graph, config.replace(max_outer_iterations=stop_after), checkpointer=ck)
        assert ck.has_snapshot()
        resumed = run_sbp(
            graph, config.replace(block_storage=resume_storage), checkpointer=ck
        )
        assert_same_fit(resumed, reference)
        assert resumed.num_blocks == reference.num_blocks


@pytest.mark.usefixtures("small_dense_150")
def test_stream_carries_dense_states(monkeypatch):
    stream = synthetic_churn_stream(
        num_vertices=200, num_communities=4, num_snapshots=3, churn=0.05,
        within_between_ratio=8.0, mean_degree=5.0, seed=21,
    )
    carried: list[str] = []
    inner = FitSession.warm_refit

    def spy(self, warm, **kwargs):
        carried.append(warm.storage_name)
        return inner(self, warm, **kwargs)

    monkeypatch.setattr(FitSession, "warm_refit", spy)

    def run(storage):
        carried.clear()
        config = SBPConfig(variant="a-sbp", seed=8, block_storage=storage)
        result = StreamSession(config, drift_threshold=1.0).run(stream)
        return result, list(carried)

    auto, auto_carried = run(AUTO_STORAGE)
    hybrid, hybrid_carried = run("hybrid")
    assert auto_carried == ["dense", "dense"]
    assert hybrid_carried == ["hybrid", "hybrid"]
    assert len(auto.snapshots) == len(hybrid.snapshots) == 3
    for a, h in zip(auto.snapshots, hybrid.snapshots):
        assert a.result.block_storage == h.result.block_storage == "hybrid"
        assert a.result.refit_mode == h.result.refit_mode
        assert a.result.drift == h.result.drift
        assert a.result.nmi_prev == h.result.nmi_prev
        assert_same_fit(a.result, h.result)


@pytest.mark.slow
def test_unpatched_v2100_fit_leaves_hybrid(merge_spy):
    """The real threshold: dense would need 33.6 MiB at C = V = 2100."""
    stream = synthetic_churn_stream(
        num_vertices=2100, num_communities=8, num_snapshots=1, churn=0.05,
        within_between_ratio=10.0, mean_degree=10.0, seed=101,
    )
    graph = stream.graph
    auto = run_sbp(graph, SBPConfig(variant="a-sbp", seed=7))
    assert auto.block_storage == "hybrid"
    assert merge_spy and set(merge_spy) == {"dense"}
    dense = run_sbp(graph, SBPConfig(variant="a-sbp", seed=7, block_storage="dense"))
    assert_same_fit(auto, dense)
