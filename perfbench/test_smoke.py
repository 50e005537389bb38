"""Smoke tests of the benchmark's own code, at tiny sizes.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, workloads  # noqa: E402
from perfbench.checks import Checks, check_result  # noqa: E402
from perfbench.layers import PER_LAYER, QueueClock, layer_patches  # noqa: E402
from perfbench.tracer import Tracer, wrapped_targets  # noqa: E402

from repro.core.sbp import run_sbp  # noqa: E402
from repro.core.variants import SBPConfig  # noqa: E402
from repro.generators import DCSBMParams, generate_dcsbm  # noqa: E402

TINY = {
    "fit-hsbp": workloads.FitSizes(
        vertices=120, communities=3, mean_degree=6.0, d_max=20, nmi_floor=0.0
    ),
    "stream-churn": workloads.StreamSizes(
        vertices=150, communities=3, mean_degree=8.0, snapshots=4, churn=0.02,
        storage="dense", nmi_floor=0.0,
    ),
    "service-mix": workloads.ServiceSizes(
        uploads=3, min_vertices=60, max_vertices=90, communities=3,
        mean_degree=6.0, hits=2, nmi_floor=0.0,
    ),
}


def _stored(patches):
    """Each patch target as stored, and whether its owner holds it itself."""
    return [
        (inspect.getattr_static(p.owner, p.attr), p.attr in vars(p.owner))
        for p in patches
    ]


def _same(left, right) -> bool:
    return all(a[0] is b[0] and a[1] == b[1] for a, b in zip(left, right))


def _tiny_graph():
    params = DCSBMParams(
        num_vertices=80, num_communities=3, within_between_ratio=8.0, mean_degree=5.0
    )
    return generate_dcsbm(params, seed=1)


def test_tracer_restores_every_patched_attribute():
    patches = layer_patches(QueueClock())
    before = _stored(patches)
    tracer = Tracer()
    graph, _ = _tiny_graph()
    with tracer.installed(patches):
        assert len(wrapped_targets(patches)) == len(patches)
        run_sbp(graph, SBPConfig(variant="h-sbp", seed=1))
    assert _same(_stored(patches), before)
    assert wrapped_targets(patches) == []
    names = {span.name for span in tracer.spans}
    assert {"core.cold_fit", "mcmc.serial", "mcmc.phase", "sbm.mdl"} <= names


def test_tracer_restores_after_an_error():
    patches = layer_patches(QueueClock())
    before = _stored(patches)
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer().installed(patches):
            raise RuntimeError("boom")
    assert _same(_stored(patches), before)


def test_untraced_run_installs_none(tmp_path, monkeypatch):
    def refuse(self, patches):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "installed", refuse)
    outcome = workloads.fit_hsbp(3, 0.0, False, tmp_path, sizes=TINY["fit-hsbp"])
    assert outcome.correct, outcome.checks.report()
    assert outcome.checks.cases["untraced_installs_none"] >= 1


def test_corrupted_result_trips_the_mdl_check():
    graph, truth = _tiny_graph()
    result = run_sbp(graph, SBPConfig(variant="a-sbp", seed=4))
    checks = Checks()
    check_result(checks, "as fitted", graph, result.assignment, result.mdl,
                 False, truth, 0.0)
    assert checks.passed, checks.report()
    permuted = np.random.default_rng(0).permutation(result.assignment)
    assert not np.array_equal(permuted, result.assignment)
    check_result(checks, "permuted", graph, permuted, result.mdl, False, truth, 0.0)
    assert list(checks.failures) == ["mdl_recompute"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_runs_pass_their_checks_and_report_every_metric(name, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        outcome = workloads.WORKLOADS[name](5, 0.0, trace, tmp_path, sizes=TINY[name])
        assert outcome.correct, outcome.checks.report()
        reported = {n: unit for n, (_, unit) in outcome.metrics.items()}
        assert reported == {m["name"]: m["unit"] for m in spec[key]}
    assert list(PER_LAYER) == [m["name"] for m in spec["per_layer"]]
    assert list(workloads.END_TO_END) == [m["name"] for m in spec["end_to_end"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
