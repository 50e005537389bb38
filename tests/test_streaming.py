"""Streaming layer: edge batches, edge deltas, FitSession, StreamSession.

Covers ISSUE 9's acceptance surface:

* ``EdgeBatch`` validation / multiset normalization and the deterministic
  ``apply_edge_batch`` rule (earliest-occurrence removal, order-stable
  survivors, growth-only vertex counts).
* ``apply_edge_delta`` vs the full ``from_assignment`` recount —
  bit-identical on all three storage engines against adversarial batches
  (self-loops, duplicate edges, removals to degree 0, block emptying).
* ``FitSession``: ``cold_fit`` ≡ ``run_sbp``, warm-refit bracket floor,
  ``partition_result`` packaging.
* ``StreamSession``: warm/cold accounting, drift-triggered cold fits,
  mid-stream checkpoint/resume bit-identity, digest refusal, vertex
  growth, serialization roundtrip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Blockmodel,
    Graph,
    SBPConfig,
    normalized_mutual_information,
    run_sbp,
)
from repro.core.fit_session import FitSession
from repro.errors import CheckpointError, GraphValidationError, ReproError
from repro.graph.stream import EdgeBatch, apply_edge_batch
from repro.io.serialize import load_stream_result, save_stream_result
from repro.metrics.alignment import consecutive_stability
from repro.resilience import RunCheckpointer
from repro.sbm.entropy import normalized_description_length
from repro.sbm.incremental import apply_edge_delta
from repro.streaming import (
    EdgeStream,
    StreamSession,
    available_drift_policies,
    available_stream_sources,
    drift_value,
    get_drift_policy,
    get_stream_source,
    register_drift_policy,
    synthetic_churn_stream,
)
from repro.streaming.drift import DriftPolicy
from repro.streaming.source import edgelist_dir_stream

STORAGES = ["dense", "sparse", "hybrid"]
_FAST = dict(max_sweeps=8)


# ---------------------------------------------------------------------------
# EdgeBatch
# ---------------------------------------------------------------------------
class TestEdgeBatch:
    def test_empty_default(self):
        batch = EdgeBatch()
        assert batch.is_empty
        assert batch.add.shape == (0, 2)
        assert batch.remove.shape == (0, 2)

    def test_list_coercion(self):
        batch = EdgeBatch(add=[[0, 1], [2, 3]], remove=[[1, 2]])
        assert batch.add.dtype == np.int64
        assert batch.add.shape == (2, 2)
        assert not batch.is_empty

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphValidationError):
            EdgeBatch(add=[[0, 1, 2]])
        with pytest.raises(GraphValidationError):
            EdgeBatch(remove=[0, 1, 2])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphValidationError):
            EdgeBatch(add=[[-1, 2]])

    def test_nonpositive_num_vertices_rejected(self):
        with pytest.raises(GraphValidationError):
            EdgeBatch(num_vertices=0)

    def test_normalized_cancels_multiset_pairs(self):
        # Two adds + one remove of (0, 1) leave one net add; (4, 5)
        # survives on the remove side untouched.
        batch = EdgeBatch(
            add=[[0, 1], [0, 1], [2, 3]], remove=[[0, 1], [4, 5]]
        )
        norm = batch.normalized()
        assert norm.add.tolist() == [[0, 1], [2, 3]]
        assert norm.remove.tolist() == [[4, 5]]

    def test_normalized_noop_returns_self(self):
        batch = EdgeBatch(add=[[0, 1]], remove=[[2, 3]])
        assert batch.normalized() is batch

    def test_normalized_preserves_num_vertices(self):
        batch = EdgeBatch(add=[[0, 1]], remove=[[0, 1]], num_vertices=9)
        assert batch.normalized().num_vertices == 9


# ---------------------------------------------------------------------------
# apply_edge_batch
# ---------------------------------------------------------------------------
class TestApplyEdgeBatch:
    def test_removes_earliest_occurrence(self, tiny_graph):
        # tiny_graph holds (1, 0) twice, at edge positions 4 and 5.
        out = apply_edge_batch(tiny_graph, EdgeBatch(remove=[[1, 0]]))
        expected = np.delete(tiny_graph.edges, 4, axis=0)
        np.testing.assert_array_equal(out.edges, expected)
        assert out.num_edges == tiny_graph.num_edges - 1

    def test_survivors_keep_order_adds_appended(self, tiny_graph):
        batch = EdgeBatch(add=[[7, 0], [0, 7]], remove=[[2, 2]])
        out = apply_edge_batch(tiny_graph, batch)
        keep = [i for i, e in enumerate(tiny_graph.edges.tolist())
                if e != [2, 2]]
        expected = np.concatenate(
            [tiny_graph.edges[keep], np.array([[7, 0], [0, 7]])], axis=0
        )
        np.testing.assert_array_equal(out.edges, expected)

    def test_multiset_removal_shortfall_raises(self, tiny_graph):
        # Three copies of (1, 0) requested, only two present.
        with pytest.raises(GraphValidationError, match=r"cannot remove"):
            apply_edge_batch(
                tiny_graph, EdgeBatch(remove=[[1, 0], [1, 0], [1, 0]])
            )

    def test_missing_edge_removal_raises(self, tiny_graph):
        with pytest.raises(GraphValidationError, match=r"cannot remove"):
            apply_edge_batch(tiny_graph, EdgeBatch(remove=[[0, 7]]))

    def test_add_endpoint_out_of_range_raises(self, tiny_graph):
        with pytest.raises(GraphValidationError):
            apply_edge_batch(tiny_graph, EdgeBatch(add=[[0, 8]]))

    def test_shrinking_num_vertices_raises(self, tiny_graph):
        with pytest.raises(GraphValidationError, match="only grow"):
            apply_edge_batch(tiny_graph, EdgeBatch(num_vertices=4))

    def test_vertex_growth(self, tiny_graph):
        out = apply_edge_batch(
            tiny_graph, EdgeBatch(add=[[8, 9], [9, 0]], num_vertices=10)
        )
        assert out.num_vertices == 10
        assert out.num_edges == tiny_graph.num_edges + 2

    def test_original_graph_untouched(self, tiny_graph):
        before = tiny_graph.edges.copy()
        apply_edge_batch(tiny_graph, EdgeBatch(remove=[[1, 0]], add=[[0, 5]]))
        np.testing.assert_array_equal(tiny_graph.edges, before)

    def test_add_and_remove_same_edge_is_noop(self, tiny_graph):
        out = apply_edge_batch(
            tiny_graph, EdgeBatch(add=[[0, 7]], remove=[[0, 7]])
        )
        np.testing.assert_array_equal(out.edges, tiny_graph.edges)


# ---------------------------------------------------------------------------
# apply_edge_delta vs rebuild oracle — bit-identity on all three engines
# ---------------------------------------------------------------------------
def _adversarial_batches(graph: Graph) -> dict[str, EdgeBatch]:
    """Named edge batches stressing each hazard class on ``tiny_graph``."""
    return {
        # Self-loop adds (incl. a duplicate pair) and a loop removal.
        "self_loops": EdgeBatch(
            add=[[0, 0], [0, 0], [5, 5]], remove=[[2, 2]]
        ),
        # Duplicate parallel adds and a duplicate-edge removal.
        "duplicates": EdgeBatch(
            add=[[5, 0], [5, 1], [5, 1]],
            remove=[[1, 0], [1, 0]],
        ),
        # Strip vertex 7 bare: removals drive its degree to zero.
        "degree_zero": EdgeBatch(remove=[[6, 7], [7, 4]]),
        # Remove every edge incident to vertex 3 — under the 3-block
        # assignment {3} is its own block, so its block-degree empties.
        "block_empty": EdgeBatch(remove=[[2, 3], [3, 0], [3, 4]]),
        # Everything at once, plus fresh adds.
        "mixed": EdgeBatch(
            add=[[0, 0], [7, 1], [7, 1], [4, 4]],
            remove=[[1, 0], [2, 2], [6, 7]],
        ),
    }


_THREE_BLOCKS = np.array([0, 0, 0, 2, 1, 1, 1, 1], dtype=np.int64)


_BATCH_CASES = [
    "self_loops", "duplicates", "degree_zero", "block_empty", "mixed",
]


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("case", _BATCH_CASES)
class TestEdgeDeltaBitIdentity:
    def test_delta_equals_rebuild(self, tiny_graph, storage, case):
        batch = _adversarial_batches(tiny_graph)[case]
        bm = Blockmodel.from_assignment(
            tiny_graph, _THREE_BLOCKS, 3, storage=storage
        )
        apply_edge_delta(bm, batch)

        new_graph = apply_edge_batch(tiny_graph, batch)
        oracle = Blockmodel.from_assignment(
            new_graph, _THREE_BLOCKS, 3, storage=storage
        )
        np.testing.assert_array_equal(
            bm.state.to_dense(), oracle.state.to_dense()
        )
        np.testing.assert_array_equal(bm.d_out, oracle.d_out)
        np.testing.assert_array_equal(bm.d_in, oracle.d_in)
        np.testing.assert_array_equal(bm.d, oracle.d)
        bm.check_consistency(new_graph)
        assert bm.mdl(new_graph) == oracle.mdl(new_graph)


@pytest.mark.parametrize("storage", STORAGES)
class TestEdgeDelta:
    def test_randomized_batch_on_planted_graph(self, planted_graph, storage):
        graph, truth = planted_graph
        rng = np.random.default_rng(17)
        remove = graph.edges[rng.choice(graph.num_edges, 15, replace=False)]
        add = rng.integers(0, graph.num_vertices, size=(15, 2))
        add[0] = [0, 0]          # self-loop
        add[1] = add[2]          # duplicate pair
        batch = EdgeBatch(add=add, remove=remove)

        num_blocks = int(truth.max()) + 1
        bm = Blockmodel.from_assignment(graph, truth, num_blocks, storage=storage)
        apply_edge_delta(bm, batch)

        new_graph = apply_edge_batch(graph, batch)
        oracle = Blockmodel.from_assignment(
            new_graph, truth, num_blocks, storage=storage
        )
        np.testing.assert_array_equal(
            bm.state.to_dense(), oracle.state.to_dense()
        )
        np.testing.assert_array_equal(bm.d, oracle.d)
        bm.check_consistency(new_graph)

    def test_endpoint_beyond_assignment_raises(self, tiny_graph, storage):
        bm = Blockmodel.from_assignment(
            tiny_graph, _THREE_BLOCKS, 3, storage=storage
        )
        with pytest.raises(ValueError, match="extend the assignment"):
            apply_edge_delta(bm, EdgeBatch(add=[[0, 12]]))

    def test_blockmodel_method_delegates(self, tiny_graph, storage):
        bm = Blockmodel.from_assignment(
            tiny_graph, _THREE_BLOCKS, 3, storage=storage
        )
        bm.apply_edge_delta(EdgeBatch(add=[[0, 4]], remove=[[3, 4]]))
        new_graph = apply_edge_batch(
            tiny_graph, EdgeBatch(add=[[0, 4]], remove=[[3, 4]])
        )
        bm.check_consistency(new_graph)


# ---------------------------------------------------------------------------
# FitSession
# ---------------------------------------------------------------------------
class TestFitSession:
    def test_cold_fit_matches_run_sbp(self, planted_graph):
        graph, _ = planted_graph
        config = SBPConfig(seed=11, **_FAST)
        via_session = FitSession(graph, config).cold_fit()
        via_driver = run_sbp(graph, config)
        np.testing.assert_array_equal(
            via_session.assignment, via_driver.assignment
        )
        assert via_session.mdl == via_driver.mdl
        assert via_session.num_blocks == via_driver.num_blocks
        assert via_session.mcmc_sweeps == via_driver.mcmc_sweeps
        assert via_session.search_history == via_driver.search_history

    def test_narrowed_min_blocks(self):
        assert FitSession.narrowed_min_blocks(10, 0.5) == 5
        assert FitSession.narrowed_min_blocks(1, 0.5) == 1
        assert FitSession.narrowed_min_blocks(4, 0.5) == 2
        assert FitSession.narrowed_min_blocks(2, 0.1) == 1

    def test_partition_result_packaging(self, tiny_graph):
        session = FitSession(tiny_graph, SBPConfig(seed=3))
        bm = Blockmodel.from_assignment(
            tiny_graph, _THREE_BLOCKS, 3,
            storage=session.config.block_storage,
        )
        result = session.partition_result(bm)
        assert result.interrupted
        assert not result.converged
        assert result.mcmc_sweeps == 0
        assert result.num_blocks == 3
        assert result.mdl == bm.mdl(tiny_graph)
        assert result.normalized_mdl == normalized_description_length(
            result.mdl, tiny_graph.num_edges, tiny_graph.num_vertices
        )
        np.testing.assert_array_equal(result.assignment, _THREE_BLOCKS)

    def test_warm_refit_quality_floor(self):
        """A warm refit on a churned snapshot must not degrade quality.

        Floored both against the carried partition (warming never throws
        away the structure it was handed) and against an independent
        cold fit of the churned snapshot.
        """
        stream = synthetic_churn_stream(
            num_vertices=150, num_communities=4, num_snapshots=2,
            churn=0.05, mean_degree=12.0, seed=3,
        )
        config = SBPConfig(seed=13, **_FAST)
        cold0 = FitSession(stream.graph, config).cold_fit()

        g1 = apply_edge_batch(stream.graph, stream.batches[0])
        carried = Blockmodel.from_assignment(
            stream.graph, cold0.assignment, cold0.num_blocks,
            storage=cold0.block_storage,
        )
        carried.apply_edge_delta(stream.batches[0].normalized())
        warm = FitSession(g1, config).warm_refit(carried)
        cold1 = FitSession(g1, config).cold_fit()

        truth = stream.truth
        nmi_warm = normalized_mutual_information(truth, warm.assignment)
        nmi_prior = normalized_mutual_information(truth, cold0.assignment)
        nmi_cold = normalized_mutual_information(truth, cold1.assignment)
        assert nmi_warm >= nmi_prior - 0.05
        assert nmi_warm >= nmi_cold - 0.05
        # The whole point of warming: far fewer sweeps than from scratch.
        assert warm.mcmc_sweeps < cold1.mcmc_sweeps


# ---------------------------------------------------------------------------
# Drift policies
# ---------------------------------------------------------------------------
class TestDrift:
    def test_drift_value(self):
        assert drift_value(0.0, 0.0) == 0.0
        assert drift_value(0.0, 0.5) == float("inf")
        assert drift_value(2.0, 2.5) == pytest.approx(0.25)
        assert drift_value(2.0, 1.5) == pytest.approx(-0.25)

    def test_builtin_policies(self):
        names = available_drift_policies()
        assert {"mdl-ratio", "always-warm", "always-cold"} <= set(names)
        ratio = get_drift_policy("mdl-ratio")
        assert ratio.should_cold_fit(0.10, 0.05)
        assert not ratio.should_cold_fit(0.01, 0.05)
        assert not get_drift_policy("always-warm").should_cold_fit(9.9, 0.0)
        assert get_drift_policy("always-cold").should_cold_fit(-1.0, 9.9)

    def test_unknown_policy_raises(self):
        with pytest.raises(ReproError, match="unknown drift policy"):
            get_drift_policy("nope")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ReproError, match="already registered"):
            register_drift_policy(DriftPolicy(
                name="mdl-ratio", summary="dup",
                should_cold_fit=lambda d, t: False,
            ))


# ---------------------------------------------------------------------------
# Stream sources
# ---------------------------------------------------------------------------
class TestStreamSources:
    def test_registry(self):
        names = available_stream_sources()
        assert {"synthetic-churn", "edgelist-dir"} <= set(names)
        assert get_stream_source("synthetic-churn").build is synthetic_churn_stream
        with pytest.raises(ReproError, match="unknown stream source"):
            get_stream_source("nope")

    def test_synthetic_churn_deterministic(self):
        kwargs = dict(
            num_vertices=60, num_communities=3, num_snapshots=4,
            churn=0.1, mean_degree=8.0, seed=9,
        )
        a = synthetic_churn_stream(**kwargs)
        b = synthetic_churn_stream(**kwargs)
        np.testing.assert_array_equal(a.graph.edges, b.graph.edges)
        np.testing.assert_array_equal(a.truth, b.truth)
        assert len(a.batches) == len(b.batches) == 3
        for x, y in zip(a.batches, b.batches):
            np.testing.assert_array_equal(x.add, y.add)
            np.testing.assert_array_equal(x.remove, y.remove)

    def test_synthetic_churn_keeps_edge_count(self):
        stream = synthetic_churn_stream(
            num_vertices=60, num_communities=3, num_snapshots=3,
            churn=0.1, mean_degree=8.0, seed=9,
        )
        graph = stream.graph
        for batch in stream.batches:
            assert batch.add.shape[0] == batch.remove.shape[0]
            graph = apply_edge_batch(graph, batch)
            assert graph.num_edges == stream.graph.num_edges

    def test_synthetic_churn_validation(self):
        with pytest.raises(ReproError, match="churn"):
            synthetic_churn_stream(churn=0.0)
        with pytest.raises(ReproError, match="num_snapshots"):
            synthetic_churn_stream(num_snapshots=0)

    def test_edgelist_dir_stream(self, tmp_path):
        (tmp_path / "00.txt").write_text("0 1\n1 2\n2 0\n")
        (tmp_path / "01.txt").write_text("0 1\n2 0\n3 0\n")
        stream = edgelist_dir_stream(tmp_path)
        assert stream.num_snapshots == 2
        assert stream.graph.num_edges == 3
        batch = stream.batches[0]
        assert batch.remove.tolist() == [[1, 2]]
        assert batch.add.tolist() == [[3, 0]]
        assert batch.num_vertices == 4
        final = apply_edge_batch(stream.graph, batch)
        assert final.num_vertices == 4
        assert final.num_edges == 3

    def test_edgelist_dir_empty_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no snapshot files"):
            edgelist_dir_stream(tmp_path)


# ---------------------------------------------------------------------------
# consecutive_stability
# ---------------------------------------------------------------------------
class TestConsecutiveStability:
    def test_identical_partitions(self):
        a = np.array([0, 0, 1, 1, 2], dtype=np.int64)
        stab = consecutive_stability(a, a)
        assert stab.nmi == pytest.approx(1.0)
        assert stab.accuracy == pytest.approx(1.0)
        assert stab.num_compared == 5

    def test_label_permutation_is_stable(self):
        a = np.array([0, 0, 1, 1], dtype=np.int64)
        b = np.array([1, 1, 0, 0], dtype=np.int64)
        stab = consecutive_stability(a, b)
        assert stab.nmi == pytest.approx(1.0)
        assert stab.accuracy == pytest.approx(1.0)

    def test_newborn_vertices_excluded(self):
        prev = np.array([0, 0, 1, 1], dtype=np.int64)
        curr = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        stab = consecutive_stability(prev, curr)
        assert stab.num_compared == 4
        assert stab.accuracy == pytest.approx(1.0)

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        stab = consecutive_stability(empty, empty)
        assert (stab.nmi, stab.accuracy, stab.num_compared) == (1.0, 1.0, 0)


# ---------------------------------------------------------------------------
# StreamSession
# ---------------------------------------------------------------------------
def _small_stream(num_snapshots: int = 3) -> EdgeStream:
    return synthetic_churn_stream(
        num_vertices=120, num_communities=4, num_snapshots=num_snapshots,
        churn=0.04, mean_degree=12.0, seed=5,
    )


_STREAM_CONFIG = SBPConfig(seed=13, **_FAST)


class TestStreamSession:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            StreamSession(_STREAM_CONFIG, drift_threshold=-0.1)

    def test_grown_assignment_joins_largest_block(self):
        grown = StreamSession._grown_assignment(
            np.array([0, 1, 1, 2], dtype=np.int64), 6, 3
        )
        assert grown.tolist() == [0, 1, 1, 2, 1, 1]
        # Tie between blocks 0 and 1 -> lowest id wins.
        tied = StreamSession._grown_assignment(
            np.array([0, 0, 1, 1], dtype=np.int64), 5, 2
        )
        assert tied.tolist() == [0, 0, 1, 1, 0]
        same = np.array([0, 1], dtype=np.int64)
        assert StreamSession._grown_assignment(same, 2, 2) is same

    def test_end_to_end_churn_stream(self):
        stream = _small_stream()
        result = StreamSession(_STREAM_CONFIG).run(stream)
        assert len(result.snapshots) == 3
        assert result.warm_refits + result.cold_fits == 3
        assert not result.interrupted

        first = result.snapshots[0].result
        assert first.refit_mode == "cold"
        assert first.nmi_prev == -1.0
        assert first.drift == 0.0
        for snap in result.snapshots[1:]:
            assert snap.result.refit_mode in ("warm", "cold")
            assert 0.0 <= snap.result.nmi_prev <= 1.0
            assert np.isfinite(snap.result.drift)
        assert result.final is result.snapshots[-1].result

        rows = result.summary_rows()
        assert len(rows) == 3
        assert {
            "snapshot", "mode", "drift", "nmi_prev", "blocks",
            "MDL_norm", "E", "+edges", "-edges", "seconds", "sweeps",
        } <= set(rows[0])

    def test_always_cold_policy(self):
        stream = _small_stream(num_snapshots=2)
        result = StreamSession(
            _STREAM_CONFIG, drift_policy="always-cold"
        ).run(stream)
        assert result.cold_fits == 2
        assert result.warm_refits == 0
        assert all(s.result.refit_mode == "cold" for s in result.snapshots)

    def test_low_churn_refits_warm(self):
        result = StreamSession(
            _STREAM_CONFIG, drift_policy="always-warm"
        ).run(_small_stream(num_snapshots=2))
        assert result.cold_fits == 1  # snapshot 0 is always cold
        assert result.warm_refits == 1
        assert result.snapshots[1].result.refit_mode == "warm"

    def test_scramble_batch_triggers_cold_fit(self):
        """Destroying the structure spikes drift past a zero threshold."""
        stream = _small_stream(num_snapshots=1)
        graph = stream.graph
        rng = np.random.default_rng(99)
        k = graph.num_edges // 2
        remove = graph.edges[rng.choice(graph.num_edges, k, replace=False)]
        add = rng.integers(0, graph.num_vertices, size=(k, 2))
        scrambled = EdgeStream(
            graph=graph,
            batches=[EdgeBatch(add=add, remove=remove)],
            truth=stream.truth,
        )
        result = StreamSession(
            _STREAM_CONFIG, drift_policy="mdl-ratio", drift_threshold=0.0
        ).run(scrambled)
        second = result.snapshots[1].result
        assert second.drift > 0.0
        assert second.refit_mode == "cold"

    def test_vertex_growth_snapshot(self):
        stream = _small_stream(num_snapshots=1)
        grow_batch = EdgeBatch(
            add=[[120, 0], [0, 121], [120, 121]], num_vertices=122
        )
        grown = EdgeStream(graph=stream.graph, batches=[grow_batch])
        result = StreamSession(_STREAM_CONFIG).run(grown)
        assert len(result.snapshots) == 2
        final = result.final
        assert final.num_vertices == 122
        assert final.assignment.shape == (122,)

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        stream = _small_stream()
        reference = StreamSession(_STREAM_CONFIG).run(stream)

        # Pass A: a zero time budget interrupts snapshot 0 immediately;
        # nothing completed is persisted, the stream ends interrupted.
        ck = RunCheckpointer(tmp_path / "stream")
        cut = StreamSession(
            _STREAM_CONFIG.replace(time_budget=0.0), checkpointer=ck
        ).run(stream)
        assert cut.interrupted
        assert len(cut.snapshots) == 1

        # Pass B: the full budget resumes through the same checkpointer
        # (time_budget is digest-neutral) and must equal the
        # checkpoint-free reference bit for bit.
        resumed = StreamSession(_STREAM_CONFIG, checkpointer=ck).run(stream)
        assert len(resumed.snapshots) == len(reference.snapshots)
        for ref, got in zip(reference.snapshots, resumed.snapshots):
            np.testing.assert_array_equal(
                ref.result.assignment, got.result.assignment
            )
            assert ref.result.mdl == got.result.mdl
            assert ref.result.refit_mode == got.result.refit_mode
            assert ref.result.drift == got.result.drift
            assert ref.result.nmi_prev == got.result.nmi_prev

        # Pass C: a rerun restores every snapshot from disk (seconds=0).
        restored = StreamSession(_STREAM_CONFIG, checkpointer=ck).run(stream)
        assert all(s.seconds == 0.0 for s in restored.snapshots)
        for ref, got in zip(reference.snapshots, restored.snapshots):
            np.testing.assert_array_equal(
                ref.result.assignment, got.result.assignment
            )
            assert ref.result.nmi_prev == got.result.nmi_prev

    def test_checkpoint_refuses_changed_stream_params(self, tmp_path):
        stream = _small_stream(num_snapshots=1)
        ck = RunCheckpointer(tmp_path / "stream")
        StreamSession(_STREAM_CONFIG, checkpointer=ck).run(stream)
        with pytest.raises(CheckpointError, match="incompatible"):
            StreamSession(
                _STREAM_CONFIG, drift_threshold=0.25, checkpointer=ck
            ).run(stream)

    def test_stream_result_roundtrip(self, tmp_path):
        result = StreamSession(_STREAM_CONFIG).run(
            _small_stream(num_snapshots=2)
        )
        path = tmp_path / "stream.json"
        save_stream_result(result, path)
        loaded = load_stream_result(path)
        assert loaded.warm_refits == result.warm_refits
        assert loaded.cold_fits == result.cold_fits
        assert loaded.drift_policy == result.drift_policy
        assert loaded.drift_threshold == result.drift_threshold
        assert len(loaded.snapshots) == len(result.snapshots)
        for ref, got in zip(result.snapshots, loaded.snapshots):
            assert got.index == ref.index
            assert got.edges_added == ref.edges_added
            assert got.edges_removed == ref.edges_removed
            np.testing.assert_array_equal(
                got.result.assignment, ref.result.assignment
            )
            assert got.result.refit_mode == ref.result.refit_mode
            assert got.result.drift == ref.result.drift
            assert got.result.nmi_prev == ref.result.nmi_prev
