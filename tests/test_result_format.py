"""Pins the v7 result file format: exact bytes, legacy payloads, bad input.

The two fixtures were written by ``save_result`` / ``save_stream_result``
from the records built below, with every serialized field set to a
distinct non-default value. A change to the writer that alters a single
byte, drops a field or reorders keys fails here; a deliberate format
change must bump the format version and regenerate the fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.results import SBPResult
from repro.errors import SerializationError
from repro.io.serialize import (
    load_result,
    load_stream_result,
    save_result,
    save_stream_result,
)
from repro.streaming.session import SnapshotReport, StreamResult
from repro.types import PhaseTimings, SweepStats

FIXTURES = Path(__file__).parent / "fixtures"
RESULT_FIXTURE = FIXTURES / "result_v7.json"
STREAM_FIXTURE = FIXTURES / "stream_result_v7.json"

#: Every result field written to disk (sweep_stats and search_history
#: are in-memory only).
SERIALIZED = (
    "variant", "assignment", "num_blocks", "mdl", "normalized_mdl",
    "num_vertices", "num_edges", "timings", "mcmc_sweeps",
    "outer_iterations", "seed", "converged", "interrupted",
    "block_storage", "sampler", "sample_rate", "refit_mode", "drift",
    "nmi_prev",
)

#: Keys each format version added: (top-level keys, timings keys).
ADDED_IN = {
    2: (("interrupted",), ()),
    3: ((), ("peak_rss_bytes", "b_nnz", "b_density")),
    4: (("block_storage",), ()),
    5: ((), (
        "comm_messages", "comm_bytes", "comm_retries",
        "frames_quarantined", "shard_releases",
    )),
    6: (("sampler", "sample_rate"), ("sampling", "extension", "finetune")),
    7: (("refit_mode", "drift", "nmi_prev"), ()),
}

#: The documented value of every key a legacy file may lack.
LEGACY_DEFAULTS = {
    "interrupted": False,
    "block_storage": "",
    "sampler": "",
    "sample_rate": 1.0,
    "refit_mode": "",
    "drift": 0.0,
    "nmi_prev": -1.0,
}
LEGACY_TIMING_DEFAULTS = {
    "merge_scan": 0.0,
    "merge_apply": 0.0,
    "barrier_rebuild": 0.0,
    "barrier_apply": 0.0,
    "sampling": 0.0,
    "extension": 0.0,
    "finetune": 0.0,
    "peak_rss_bytes": 0,
    "b_nnz": 0,
    "b_density": 0.0,
    "comm_messages": 0,
    "comm_bytes": 0,
    "comm_retries": 0,
    "frames_quarantined": 0,
    "shard_releases": 0,
}
BASE_TIMINGS = ("block_merge", "mcmc", "rebuild", "other")


def full_timings(offset: float = 0.0) -> PhaseTimings:
    """All 19 timing fields set, each to its own non-default value."""
    k = int(offset)
    return PhaseTimings(
        block_merge=1.25 + offset,
        mcmc=2.5 + offset,
        rebuild=0.375 + offset,
        other=0.0625 + offset,
        merge_scan=0.75 + offset,
        merge_apply=0.5 + offset,
        barrier_rebuild=0.125 + offset,
        barrier_apply=0.1875 + offset,
        sampling=3.125 + offset,
        extension=0.4375 + offset,
        finetune=4.0625 + offset,
        peak_rss_bytes=123456789 + k,
        b_nnz=17 + k,
        b_density=0.2109375 + offset,
        comm_messages=54 + k,
        comm_bytes=105298 + k,
        comm_retries=3 + k,
        frames_quarantined=2 + k,
        shard_releases=1 + k,
    )


def full_result(offset: float = 0.0) -> SBPResult:
    """A result with every field set to a distinct non-default value."""
    k = int(offset)
    return SBPResult(
        variant="h-sbp",
        assignment=np.array([0, 2, 1, 2, 0, 1 + k], dtype=np.int64),
        num_blocks=3 + k,
        mdl=1234.5678 + offset,
        normalized_mdl=0.8765432 + offset,
        num_vertices=6 + k,
        num_edges=11 + k,
        timings=full_timings(offset),
        mcmc_sweeps=42 + k,
        outer_iterations=7 + k,
        seed=1234 + k,
        converged=True,
        interrupted=True,
        sweep_stats=[SweepStats(proposals=6, accepted=2, delta_mdl=-1.5)],
        search_history=[(6, 1300.25), (3, 1234.5678)],
        block_storage="hybrid",
        sampler="degree-weighted",
        sample_rate=0.5,
        refit_mode="warm",
        drift=0.0390625,
        nmi_prev=0.71875 + offset / 100.0,
    )


def full_stream() -> StreamResult:
    return StreamResult(
        snapshots=[
            SnapshotReport(
                index=0, edges_added=0, edges_removed=0, seconds=1.5,
                result=full_result(),
            ),
            SnapshotReport(
                index=1, edges_added=9, edges_removed=4, seconds=0.875,
                result=full_result(1.0),
            ),
        ],
        warm_refits=1,
        cold_fits=1,
        drift_policy="mdl-ratio",
        drift_threshold=0.05,
    )


def assert_same_record(back: SBPResult, want: SBPResult) -> None:
    for name in SERIALIZED:
        got, expected = getattr(back, name), getattr(want, name)
        if name == "assignment":
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
        else:
            assert got == expected, name
            assert type(got) is type(expected), name


def test_timings_fixture_covers_every_field():
    timings = full_timings()
    values = [getattr(timings, name) for name in timings.__dataclass_fields__]
    assert len(values) == 19
    assert 0 not in values
    assert len(set(values)) == len(values)


class TestBytes:
    def test_result_bytes_match_fixture(self, tmp_path):
        path = tmp_path / "result.json"
        save_result(full_result(), path)
        assert path.read_bytes() == RESULT_FIXTURE.read_bytes()

    def test_stream_result_bytes_match_fixture(self, tmp_path):
        path = tmp_path / "stream.json"
        save_stream_result(full_stream(), path)
        assert path.read_bytes() == STREAM_FIXTURE.read_bytes()

    def test_fixtures_are_v7(self):
        for fixture in (RESULT_FIXTURE, STREAM_FIXTURE):
            assert json.loads(fixture.read_text())["version"] == 7


class TestLoad:
    def test_result_fixture_loads_every_field(self):
        back = load_result(RESULT_FIXTURE)
        assert_same_record(back, full_result())
        assert back.sweep_stats == []
        assert back.search_history == []

    def test_stream_fixture_loads_every_field(self):
        back = load_stream_result(STREAM_FIXTURE)
        want = full_stream()
        assert len(back.snapshots) == len(want.snapshots)
        for got, expected in zip(back.snapshots, want.snapshots):
            assert (got.index, got.edges_added, got.edges_removed) == (
                expected.index, expected.edges_added, expected.edges_removed
            )
            assert got.seconds == expected.seconds
            assert_same_record(got.result, expected.result)
        assert back.warm_refits == want.warm_refits
        assert back.cold_fits == want.cold_fits
        assert back.drift_policy == want.drift_policy
        assert back.drift_threshold == want.drift_threshold


def _legacy_payload(version: int) -> tuple[dict, list[str], list[str]]:
    """The fixture payload as a ``version`` writer would have produced it."""
    payload = json.loads(RESULT_FIXTURE.read_text())
    payload["version"] = version
    dropped, dropped_timings = [], []
    for added, (keys, timing_keys) in ADDED_IN.items():
        if added > version:
            dropped += keys
            dropped_timings += timing_keys
    for key in dropped:
        del payload[key]
    for key in dropped_timings:
        del payload["timings"][key]
    return payload, dropped, dropped_timings


class TestLegacyPayloads:
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_version_loads_with_defaults(self, version, tmp_path):
        payload, dropped, dropped_timings = _legacy_payload(version)
        assert dropped or dropped_timings
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(payload))
        back = load_result(path)
        want = full_result()
        for key in dropped:
            assert getattr(back, key) == LEGACY_DEFAULTS[key], key
        for key in dropped_timings:
            assert getattr(back.timings, key) == LEGACY_TIMING_DEFAULTS[key], key
        for name in SERIALIZED:
            if name in dropped or name in ("assignment", "timings"):
                continue
            assert getattr(back, name) == getattr(want, name), name
        for name in want.timings.__dataclass_fields__:
            if name not in dropped_timings:
                assert getattr(back.timings, name) == getattr(
                    want.timings, name
                ), name

    def test_v1_with_only_base_timing_keys(self, tmp_path):
        payload, _, _ = _legacy_payload(1)
        payload["timings"] = {
            key: payload["timings"][key] for key in BASE_TIMINGS
        }
        path = tmp_path / "v1_base.json"
        path.write_text(json.dumps(payload))
        back = load_result(path)
        want = full_result()
        for key in BASE_TIMINGS:
            assert getattr(back.timings, key) == getattr(want.timings, key)
        for key, default in LEGACY_TIMING_DEFAULTS.items():
            assert getattr(back.timings, key) == default, key
        for key, default in LEGACY_DEFAULTS.items():
            assert getattr(back, key) == default, key
        np.testing.assert_array_equal(back.assignment, want.assignment)


class TestMalformed:
    def _write(self, tmp_path, payload) -> Path:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        return path

    def test_missing_assignment(self, tmp_path):
        payload = json.loads(RESULT_FIXTURE.read_text())
        del payload["assignment"]
        with pytest.raises(SerializationError, match="malformed result field"):
            load_result(self._write(tmp_path, payload))

    def test_missing_mcmc_timing(self, tmp_path):
        payload = json.loads(RESULT_FIXTURE.read_text())
        del payload["timings"]["mcmc"]
        with pytest.raises(SerializationError, match="malformed result field"):
            load_result(self._write(tmp_path, payload))

    def test_missing_mcmc_timing_in_stream_snapshot(self, tmp_path):
        payload = json.loads(STREAM_FIXTURE.read_text())
        del payload["snapshots"][1]["result"]["timings"]["mcmc"]
        with pytest.raises(SerializationError, match="malformed result field"):
            load_stream_result(self._write(tmp_path, payload))
