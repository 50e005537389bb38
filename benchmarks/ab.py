"""Paired A/B runs of the end-to-end benchmark: a parent revision against the working tree.

    python3 benchmarks/ab.py --parent REV --workload W [--pairs 10] [--seconds 30] [--seed 1]

``REV`` is checked out into a temporary detached ``git worktree``, removed
on exit. Pair i runs the unchanged ``perfbench/run.py --trace 0`` in both
checkouts with seed ``seed + i``; the parent runs first in even pairs and
the change first in odd ones. For each end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the
change's wins out of the pairs (ties count for neither side), the median
of the paired ratios change/parent with a 95% bootstrap interval, and the
first verdict that holds:

``better``
    the change wins at least 9/10 of the pairs run and its median beats
    the parent's by more than the parent's interquartile range;
``unresolved``
    either side's interquartile range is wider than the metric's bound
    (relative to the parent's median), unless every change run reads
    better than every parent run;
``worse``
    the change's median is worse than the parent's by more than the bound;
``same``
    none of these.

A run that exits nonzero or reports ``correct: false`` is reported and
counted, and its pair is left out. The last stdout line is a JSON record
of every kept pair.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: A gain needs the change to win at least this share of the pairs run.
WIN_SHARE = 0.9
BOOTSTRAP_DRAWS = 4000
BOOTSTRAP_SEED = 20261019


def compare(
    parent: list[float], change: list[float], better: str, bound: float,
    pairs_run: int | None = None,
) -> dict:
    """Paired statistics and the verdict for one metric.

    ``parent[i]`` and ``change[i]`` are pair i's values; ``pairs_run``
    (default: the pair count) also counts the pairs left out.
    """
    p = np.asarray(parent, dtype=float)
    c = np.asarray(change, dtype=float)
    sign = 1.0 if better == "lower" else -1.0
    wins = int((sign * (p - c) > 0).sum())
    p_q1, p_med, p_q3 = np.percentile(p, [25, 50, 75])
    c_q1, c_med, c_q3 = np.percentile(c, [25, 50, 75])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = c / p
    ratios = ratios[np.isfinite(ratios)]
    ratio = lo = hi = float("nan")
    if ratios.size:
        ratio = float(np.median(ratios))
        draws = np.random.default_rng(BOOTSTRAP_SEED).integers(
            0, ratios.size, (BOOTSTRAP_DRAWS, ratios.size)
        )
        lo, hi = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
    gain = sign * (p_med - c_med)
    allowed = bound * abs(p_med)
    every_run_better = (sign * c).max() < (sign * p).min()
    if wins >= WIN_SHARE * (pairs_run or p.size) and gain > p_q3 - p_q1:
        verdict = "better"
    elif max(p_q3 - p_q1, c_q3 - c_q1) > allowed and not every_run_better:
        verdict = "unresolved"
    elif -gain > allowed:
        verdict = "worse"
    else:
        verdict = "same"
    return {
        "parent": (float(p_med), float(p_q1), float(p_q3)),
        "change": (float(c_med), float(c_q1), float(c_q3)),
        "wins": wins, "pairs": int(p.size),
        "ratio": (ratio, float(lo), float(hi)), "verdict": verdict,
    }


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``; its last-line JSON record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    record["ok"] = proc.returncode == 0 and record["correct"]
    if not record["ok"]:
        print(f"ab: seed {seed} in {checkout} failed (exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    parent_root = tmp / "parent"
    kept: list[dict] = []
    totals = {side: {"runs_failed": 0, "attempted": 0, "failed": 0}
              for side in ("parent", "change")}
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(parent_root), args.parent],
                       cwd=ROOT, check=True, capture_output=True)
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("parent", parent_root), ("change", ROOT)]
            records = {side: run_side(path, args.workload, seed, args.seconds)
                       for side, path in (order if i % 2 == 0 else order[::-1])}
            for side, record in records.items():
                totals[side]["runs_failed"] += not record["ok"]
                totals[side]["attempted"] += record["attempted"]
                totals[side]["failed"] += record["failed"]
            if all(r["ok"] for r in records.values()):
                kept.append({"seed": seed, **{
                    side: {k: m["value"] for k, m in r["metrics"].items()}
                    for side, r in records.items()}})
            print(f"ab: pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent_root)],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}: parent {args.parent} vs working tree, {len(kept)} of "
          f"{args.pairs} pairs kept, {args.seconds:g} s per run")
    for side, t in totals.items():
        print(f"  {side}: {t['runs_failed']} runs failed, "
              f"{t['failed']}/{t['attempted']} operations failed")
    header = (f"{'metric':<12} {'unit':<5} {'parent med [q1, q3]':>30} "
              f"{'change med [q1, q3]':>30} {'wins':>6} {'ratio [95% CI]':>24}  verdict")
    print(header)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if not kept or any(name not in k[s] for k in kept for s in ("parent", "change")):
            continue
        stats = compare([k["parent"][name] for k in kept], [k["change"][name] for k in kept],
                        metric["better"], metric["bound"], pairs_run=args.pairs)
        side = {s: "{:.4g} [{:.4g}, {:.4g}]".format(*stats[s]) for s in ("parent", "change")}
        ratio = "{:.3f} [{:.3f}, {:.3f}]".format(*stats["ratio"])
        print(f"{name:<12} {metric['unit']:<5} {side['parent']:>30} {side['change']:>30} "
              f"{stats['wins']:>3}/{stats['pairs']:<2} {ratio:>24}  {stats['verdict']}")
    print(json.dumps({"workload": args.workload, "parent": args.parent,
                      "seconds": args.seconds, "totals": totals, "pairs": kept}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
