"""Statistics of the paired A/B runner, on synthetic runs (no git, no perfbench)."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent))

from benchmarks.ab import compare  # noqa: E402


def _noisy(center: float, spread: float, n: int = 10, seed: int = 0) -> list[float]:
    rng = np.random.default_rng(seed)
    return list(center * (1.0 + spread * rng.uniform(-1.0, 1.0, n)))


class TestVerdicts:
    def test_clear_gain_is_better(self):
        parent = _noisy(10.0, 0.02, seed=1)
        change = _noisy(5.0, 0.02, seed=2)
        stats = compare(parent, change, "lower", 0.25)
        assert stats["wins"] == 10
        assert stats["verdict"] == "better"
        ratio, lo, hi = stats["ratio"]
        assert lo <= ratio <= hi
        assert 0.45 < ratio < 0.55

    def test_higher_is_better_direction(self):
        parent = _noisy(4.0, 0.02, seed=3)
        assert compare(parent, [2 * x for x in parent], "higher", 0.25)["verdict"] == "better"
        assert compare(parent, [x / 2 for x in parent], "higher", 0.25)["verdict"] == "worse"

    def test_regression_beyond_bound_is_worse(self):
        parent = _noisy(10.0, 0.02, seed=4)
        change = [x * 1.4 for x in parent]
        stats = compare(parent, change, "lower", 0.25)
        assert stats["wins"] == 0
        assert stats["verdict"] == "worse"

    def test_small_slowdown_within_bound_is_same(self):
        parent = _noisy(10.0, 0.02, seed=5)
        change = [x * 1.1 for x in parent]
        assert compare(parent, change, "lower", 0.25)["verdict"] == "same"

    def test_ties_count_for_neither_side(self):
        runs = _noisy(3.0, 0.05, seed=6)
        stats = compare(runs, list(runs), "lower", 0.25)
        assert stats["wins"] == 0
        assert stats["ratio"] == (1.0, 1.0, 1.0)
        assert stats["verdict"] == "same"

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [7.0, 7.2, 9.6, 9.5, 6.9, 7.1, 9.8, 7.0, 9.1, 7.3]
        change = [9.2, 7.1, 9.0, 7.0, 9.6, 7.2, 7.0, 9.4, 7.1, 9.0]
        assert compare(parent, change, "lower", 0.25)["verdict"] == "unresolved"

    def test_every_change_run_better_overrides_spread(self):
        parent = [10.0, 20.0, 30.0, 40.0]
        change = [9.0, 8.0, 7.0, 6.0]
        stats = compare(parent, change, "lower", 0.25)
        assert stats["verdict"] == "better"
        # Without a 9/10 win share a wide spread with every change run
        # better is still no regression.
        assert compare(parent, change, "lower", 0.25, pairs_run=6)["verdict"] == "same"

    def test_left_out_pairs_count_against_a_gain(self):
        parent = _noisy(10.0, 0.02, seed=7, n=9)
        change = _noisy(5.0, 0.02, seed=8, n=9)
        assert compare(parent, change, "lower", 0.25, pairs_run=9)["verdict"] == "better"
        assert compare(parent, change, "lower", 0.25, pairs_run=11)["verdict"] == "same"

    def test_zero_parent_values_skip_the_ratio(self):
        stats = compare([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.25)
        assert all(math.isnan(x) for x in stats["ratio"])
        assert stats["verdict"] == "same"

    def test_bootstrap_is_deterministic(self):
        parent = _noisy(10.0, 0.3, seed=9)
        change = _noisy(9.0, 0.3, seed=10)
        assert compare(parent, change, "lower", 0.25) == compare(parent, change, "lower", 0.25)
