"""``synthetic-churn`` streams are pinned byte for byte.

The stream is a pure function of its arguments (Philox streams keyed by
``(seed, snapshot)``), and every consumer downstream — the streaming
benchmarks, perfbench's stream-churn workload, the stream-result
fixtures — assumes it never changes. This module pins sha256 digests of
the initial graph's edges, the planted truth and every batch's add and
remove arrays (bytes, dtype and shape) against
``tests/fixtures/churn_stream_digests.json``.

Regenerate the fixture only on purpose, when a change is *meant* to
alter the stream::

    PYTHONPATH=src python tests/test_churn_stream_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.streaming import synthetic_churn_stream

FIXTURE = Path(__file__).parent / "fixtures" / "churn_stream_digests.json"

#: (name, keyword arguments) of every pinned stream. ``perfbench-shape``
#: is the stream-churn workload's stream; the others cover one
#: community, an all-between ratio of 0 and a high churn rate.
CASES = {
    "perfbench-shape": dict(
        num_vertices=2100, num_communities=8, num_snapshots=41, churn=0.05,
        within_between_ratio=10.0, mean_degree=10.0, seed=1,
    ),
    "defaults": dict(seed=0),
    "one-community": dict(
        num_vertices=300, num_communities=1, num_snapshots=4, churn=0.1,
        seed=3,
    ),
    "ratio-zero": dict(
        num_vertices=300, num_communities=4, num_snapshots=5, churn=0.05,
        within_between_ratio=0.0, mean_degree=6.0, seed=7,
    ),
    "high-churn": dict(
        num_vertices=60, num_communities=6, num_snapshots=6, churn=0.5,
        within_between_ratio=3.0, seed=11,
    ),
}


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def stream_digests(**kwargs) -> dict[str, object]:
    stream = synthetic_churn_stream(**kwargs)
    return {
        "graph_edges": _digest(stream.graph.edges),
        "truth": _digest(stream.truth),
        "batches": [
            [_digest(batch.add), _digest(batch.remove)]
            for batch in stream.batches
        ],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_matches_pinned_digests(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert stream_digests(**CASES[name]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    FIXTURE.write_text(
        json.dumps(
            {name: stream_digests(**kw) for name, kw in CASES.items()},
            indent=1,
        )
        + "\n"
    )
