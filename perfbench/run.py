"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-hsbp --seed 1 --seconds 20 --trace 0

Prints each metric with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` the per-layer metrics of a traced run. Exits non-zero,
naming the failed checks on stderr, when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The keys of ``perfbench.workloads.WORKLOADS``, known before the
#: program is imported.
WORKLOAD_NAMES = ("fit-hsbp", "stream-churn", "service-mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process with at most two threads of load: keep numeric libraries
    # from starting thread pools of their own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The auto storage policy reads this budget; the workloads need the default.
    os.environ.pop("REPRO_STORAGE_BUDGET_BYTES", None)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    outcome = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench"
    )
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:<13} {name:<28} {value:>14.6g} {unit}")
    for line in outcome.checks.report():
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps(outcome.as_json()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
