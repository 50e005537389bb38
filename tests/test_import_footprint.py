"""``import repro`` and the fit paths load no scipy module.

scipy costs about a second and 60 MiB to import, and only the
Fig. 3 correlation fit, the influence analysis, the Hungarian alignment
and graph property fits need it; each imports it lazily. Every CLI,
service and benchmark process imports ``repro`` and fits, so a
module-level scipy import anywhere on that path is a start-up
regression. The check runs in a fresh interpreter, because this test
process has long since imported scipy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import sys

import repro
from repro import SBPConfig, run_sbp
from repro.streaming import StreamSession, synthetic_churn_stream

stream = synthetic_churn_stream(
    num_vertices=60, num_communities=3, num_snapshots=3, seed=4
)
for variant in ("sbp", "h-sbp", "a-sbp"):
    run_sbp(stream.graph, SBPConfig(variant=variant, seed=1, max_sweeps=4))
result = StreamSession(SBPConfig(variant="a-sbp", seed=2, max_sweeps=4)).run(stream)
assert len(result.snapshots) == 3
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_fit_and_stream_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
