"""The one ``Registry[T]`` behind every pluggable-engine kind.

One contract row per registry: sorted names holding the built-ins, the
registry's own error class for unknown and duplicate names, and built-in
modules imported exactly once, on first access. Plus the two places
registered entries must reach: ``SBPConfig`` validation and the
``repro registry --list`` listing, pinned byte for byte.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.variants import SBPConfig
from repro.errors import BackendError, ReproError, ServiceError, TransportError

FIXTURE = Path(__file__).parent / "fixtures" / "registry_list.txt"
SRC = str(Path(repro.__file__).resolve().parents[1])

#: (defining module, registry attribute, error class, kind label, built-ins)
ROWS = [
    ("repro.mcmc.engine", "VARIANTS", ReproError, "variant",
     {"sbp", "a-sbp", "b-sbp", "h-sbp", "tiered"}),
    ("repro.parallel.backend", "BACKENDS", BackendError, "backend",
     {"serial", "vectorized", "process", "resilient", "distributed"}),
    ("repro.parallel.backend", "MERGE_BACKENDS", BackendError, "merge backend",
     {"serial", "vectorized"}),
    ("repro.parallel.backend", "UPDATE_STRATEGIES", BackendError,
     "update strategy", {"rebuild", "incremental"}),
    ("repro.sbm.block_storage", "BLOCK_STORAGES", BackendError, "block storage",
     {"dense", "sparse", "hybrid"}),
    ("repro.sampling.samplers", "SAMPLERS", ReproError, "sampler",
     {"uniform-random", "degree-weighted", "expansion-snowball"}),
    ("repro.distributed.comm", "TRANSPORTS", TransportError, "transport",
     {"sim", "inproc", "pipes"}),
    ("repro.streaming.drift", "DRIFT_POLICIES", ReproError, "drift policy",
     {"mdl-ratio", "always-warm", "always-cold"}),
    ("repro.streaming.source", "STREAM_SOURCES", ReproError, "stream source",
     {"synthetic-churn", "edgelist-dir"}),
    ("repro.service.store", "RESULT_STORES", ServiceError, "result store",
     {"disk", "memory"}),
    ("repro.service.queue", "JOB_QUEUES", ServiceError, "job queue",
     {"fifo", "lifo"}),
]
IDS = [row[1] for row in ROWS]


def _registry(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


def _run_python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    ).stdout


# Counts the registries' own importlib.import_module calls, per module
# name, around the first and the second access of each registry.
_IMPORT_PROBE = """
import importlib, json, sys
rows = json.loads(sys.argv[1])
registries = [getattr(importlib.import_module(m), a) for m, a in rows]
calls = []
real = importlib.import_module
def counting(name, package=None):
    calls.append(name)
    return real(name, package)
importlib.import_module = counting
out = {}
for (module, attr), registry in zip(rows, registries):
    calls.clear()
    registry.names()
    first = list(calls)
    calls.clear()
    registry.names()
    registry.items()
    out[attr] = [first, list(calls)]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def import_probe() -> dict:
    rows = json.dumps([[module, attr] for module, attr, *_ in ROWS])
    return json.loads(_run_python("-c", _IMPORT_PROBE, rows))


@pytest.mark.parametrize(("module", "attr", "error", "kind", "builtins"), ROWS, ids=IDS)
class TestRegistryContract:
    def test_names_sorted_and_hold_builtins(self, module, attr, error, kind, builtins):
        registry = _registry(module, attr)
        names = registry.names()
        assert names == sorted(names)
        assert builtins <= set(names)
        assert [name for name, _ in registry.items()] == names
        for name in builtins:
            assert registry.get(name) is dict(registry.items())[name]

    def test_unknown_name_raises_own_error(self, module, attr, error, kind, builtins):
        with pytest.raises(error, match=f"unknown {kind} 'no-such-entry'") as info:
            _registry(module, attr).get("no-such-entry")
        assert info.type is error

    def test_duplicate_name_rejected(self, module, attr, error, kind, builtins):
        registry = _registry(module, attr)
        name = min(builtins)
        entry = registry.get(name)
        with pytest.raises(error, match="already registered") as info:
            registry.register(name, entry)
        assert info.type is error
        assert registry.get(name) is entry

    def test_builtins_import_once_on_first_access(
        self, module, attr, error, kind, builtins, import_probe
    ):
        first, later = import_probe[attr]
        assert first == list(_registry(module, attr).builtins)
        assert later == []


def test_registry_list_matches_fixture():
    """``repro registry --list`` byte for byte, in a fresh interpreter.

    In-process output would include entries other test modules register
    into the process-global registries, so it would depend on test order.
    """
    assert _run_python("-m", "repro", "registry", "--list") == FIXTURE.read_text(
        encoding="utf-8"
    )


def test_config_accepts_registered_update_strategy(planted_graph):
    from repro.core.sbp import run_sbp
    from repro.parallel.backend import available_update_strategies, register_update_strategy
    from repro.sbm.incremental import RebuildUpdater

    if "plugin-rebuild" not in available_update_strategies():
        register_update_strategy("plugin-rebuild", RebuildUpdater)
    graph, _ = planted_graph
    config = SBPConfig(variant="a-sbp", seed=3, update_strategy="plugin-rebuild")
    plugin = run_sbp(graph, config)
    oracle = run_sbp(graph, config.replace(update_strategy="rebuild"))
    assert plugin.assignment.tolist() == oracle.assignment.tolist()
    assert plugin.mdl == oracle.mdl
