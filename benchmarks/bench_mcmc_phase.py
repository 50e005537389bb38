"""MCMC-phase benchmark: the sweep barrier and the serial pass.

Two hot paths, each timed against its reference on the same state:

* **Sweep barrier** — reconciling the blockmodel with a sweep's moved
  set in a late-phase, low-acceptance regime (0.2% of vertices move):
  ``RebuildUpdater`` (O(E) recount) vs ``IncrementalUpdater``
  (O(Σ deg(moved)) scatter delta). Byte-equality of the resulting
  state is asserted every barrier.
* **Serial pass** — one full serial Metropolis sweep (propose, accept,
  apply) from the same state: the per-vertex loop it replaced
  (``evaluate_vertex`` then ``apply_move``, kept here as the reference)
  vs the windowed :func:`~repro.mcmc.metropolis.metropolis_sweep`.
  Byte-equal state and acceptance counts are asserted. Every committed
  move costs the window kernel one batch call, so its gain depends on
  the acceptance rate, which each row reports. Two regimes per size:
  ``planted`` is the truth partition of an 8-community planted DCSBM,
  where few proposals are accepted (the regime the serial tier spends
  its sweeps in); ``random-start`` is a random assignment over
  C = V/100 blocks of a flat multigraph, where about half are accepted
  and windows are slower than the loop. Only rows below
  ``LOW_ACCEPT`` acceptance are gated.

Sizes default to V in {1e3, 1e4, 1e5}; override with a comma-separated
``REPRO_MCMC_PHASE_SIZES`` or run ``python benchmarks/bench_mcmc_phase.py
--quick`` (CI smoke: V in {1e3, 1e4}, fewer repetitions).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.reporting import format_table
from repro.generators import DCSBMParams, generate_dcsbm
from repro.graph.graph import Graph
from repro.mcmc.evaluate import evaluate_vertex
from repro.mcmc.metropolis import metropolis_sweep
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.incremental import IncrementalUpdater, RebuildUpdater
from repro.utils.rng import SweepRandomness

DEFAULT_SIZES = [1_000, 10_000, 100_000]
QUICK_SIZES = [1_000, 10_000]
SEED = 29
MEAN_DEGREE = 8
#: late-phase regime: fraction of vertices moved per sweep barrier
MOVED_FRACTION = 0.002
BARRIERS = 10
#: serial-pass vertices are capped so the per-vertex loop stays tractable
MAX_PROPOSALS = 4_000
#: serial-pass inverse temperature (the SBPConfig default)
BETA = 3.0
#: communities of the planted serial regime
PLANTED_COMMUNITIES = 8
#: serial rows below this acceptance rate must show a window speedup
LOW_ACCEPT = 0.10
#: acceptance floor for the barrier at the largest benchmarked size
MIN_BARRIER_SPEEDUP_LARGE = 5.0


def _sizes() -> list[int]:
    raw = os.environ.get("REPRO_MCMC_PHASE_SIZES", "")
    if not raw:
        return list(DEFAULT_SIZES)
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _random_multigraph(num_vertices: int, rng: np.random.Generator) -> Graph:
    """Uniform random multigraph with ~1% self-loops.

    Degree shape is irrelevant for barrier cost (it is O(E) vs
    O(Σ deg(moved)) either way), so a flat multigraph keeps setup cheap
    at V = 1e5 while still exercising loops and parallel edges.
    """
    num_edges = num_vertices * MEAN_DEGREE
    edges = rng.integers(0, num_vertices, size=(num_edges, 2), dtype=np.int64)
    loops = rng.random(num_edges) < 0.01
    edges[loops, 1] = edges[loops, 0]
    return Graph(num_vertices, edges)


def _bench_barrier(
    graph: Graph, num_blocks: int, rng: np.random.Generator, barriers: int
) -> tuple[float, float, int]:
    """Total rebuild vs delta-apply seconds over ``barriers`` moved sets."""
    assignment = rng.integers(0, num_blocks, graph.num_vertices)
    reb_bm = Blockmodel.from_assignment(graph, assignment, num_blocks)
    inc_bm = reb_bm.copy()
    rebuild = RebuildUpdater()
    incremental = IncrementalUpdater()
    moved_count = max(1, int(MOVED_FRACTION * graph.num_vertices))

    reb_s = 0.0
    inc_s = 0.0
    for _ in range(barriers):
        moved = rng.choice(graph.num_vertices, size=moved_count, replace=False)
        targets = rng.integers(0, num_blocks, moved_count)

        start = time.perf_counter()
        rebuild.apply_sweep(reb_bm, graph, moved, targets)
        reb_s += time.perf_counter() - start

        start = time.perf_counter()
        incremental.apply_sweep(inc_bm, graph, moved, targets)
        inc_s += time.perf_counter() - start

        assert np.array_equal(reb_bm.B, inc_bm.B), "barrier states diverge"
        assert np.array_equal(reb_bm.d, inc_bm.d)
        assert np.array_equal(reb_bm.assignment, inc_bm.assignment)
    return reb_s, inc_s, moved_count


def per_vertex_sweep(
    bm: Blockmodel, graph: Graph, vertices: np.ndarray,
    randomness: SweepRandomness, beta: float,
) -> int:
    """The per-vertex serial loop (the reference); returns accepted moves."""
    accepted = 0
    for i, v in enumerate(vertices):
        v = int(v)
        decision = evaluate_vertex(bm, graph, v, randomness.uniforms[i], beta)
        if decision.is_move:
            ctx = decision.context
            bm.apply_move(
                v, decision.target, ctx.t_out, ctx.c_out, ctx.t_in, ctx.c_in,
                ctx.loops, ctx.deg_out, ctx.deg_in,
            )
            accepted += 1
    return accepted


def _bench_serial_pass(
    graph: Graph, bm: Blockmodel
) -> tuple[int, int, float, float]:
    """(proposals, accepted, loop_s, window_s) of one sweep from ``bm``."""
    proposals = min(graph.num_vertices, MAX_PROPOSALS)
    vertices = np.arange(proposals, dtype=np.int64)
    rand = SweepRandomness.draw(SEED, 1, 0, proposals)
    loop_bm = bm.copy()
    window_bm = bm.copy()

    start = time.perf_counter()
    accepted = per_vertex_sweep(loop_bm, graph, vertices, rand, BETA)
    loop_s = time.perf_counter() - start

    start = time.perf_counter()
    stats = metropolis_sweep(window_bm, graph, vertices, rand, BETA)
    window_s = time.perf_counter() - start

    assert stats.accepted == accepted, "window kernel accepted a different count"
    assert np.array_equal(window_bm.B, loop_bm.B), "serial states diverge"
    assert np.array_equal(window_bm.d_out, loop_bm.d_out)
    assert np.array_equal(window_bm.d_in, loop_bm.d_in)
    assert np.array_equal(window_bm.assignment, loop_bm.assignment)
    return proposals, accepted, loop_s, window_s


def _serial_states(
    num_vertices: int, flat: Graph, rng: np.random.Generator
) -> list[tuple[str, Graph, Blockmodel]]:
    planted, truth = generate_dcsbm(
        DCSBMParams(
            num_vertices=num_vertices,
            num_communities=PLANTED_COMMUNITIES,
            within_between_ratio=10.0,
            mean_degree=float(MEAN_DEGREE),
        ),
        seed=SEED,
    )
    num_blocks = max(8, num_vertices // 100)
    return [
        ("planted", planted, Blockmodel.from_assignment(planted, truth)),
        ("random-start", flat, Blockmodel.from_assignment(
            flat, rng.integers(0, num_blocks, num_vertices), num_blocks
        )),
    ]


def mcmc_phase_rows(
    sizes: list[int] | None = None, barriers: int = BARRIERS
) -> tuple[list[dict[str, object]], list[dict[str, object]]]:
    """(barrier rows, serial rows) over ``sizes``."""
    barrier_rows: list[dict[str, object]] = []
    serial_rows: list[dict[str, object]] = []
    for num_vertices in sizes if sizes is not None else _sizes():
        rng = np.random.default_rng(SEED)
        graph = _random_multigraph(num_vertices, rng)
        num_blocks = max(8, num_vertices // 100)

        reb_s, inc_s, moved = _bench_barrier(graph, num_blocks, rng, barriers)
        barrier_rows.append(
            {
                "V": num_vertices,
                "E": graph.num_edges,
                "C": num_blocks,
                "moved": moved,
                "rebuild_s": reb_s,
                "apply_s": inc_s,
                "barrier_speedup": reb_s / inc_s if inc_s > 0 else float("inf"),
                "bit_identical": True,
            }
        )

        for regime, g, bm in _serial_states(num_vertices, graph, rng):
            proposals, accepted, loop_s, window_s = _bench_serial_pass(g, bm)
            serial_rows.append(
                {
                    "V": num_vertices,
                    "E": g.num_edges,
                    "C": bm.num_blocks,
                    "regime": regime,
                    "proposals": proposals,
                    "accept_rate": accepted / proposals,
                    "loop_s": loop_s,
                    "window_s": window_s,
                    "serial_speedup": (
                        loop_s / window_s if window_s > 0 else float("inf")
                    ),
                    "bit_identical": True,
                }
            )
    return barrier_rows, serial_rows


def _check_rows(
    barrier_rows: list[dict[str, object]], serial_rows: list[dict[str, object]]
) -> None:
    largest = max(barrier_rows, key=lambda r: r["V"])
    if largest["V"] >= 100_000:
        assert largest["barrier_speedup"] >= MIN_BARRIER_SPEEDUP_LARGE, (
            f"V={largest['V']}: barrier speedup "
            f"{largest['barrier_speedup']:.1f}x below the "
            f"{MIN_BARRIER_SPEEDUP_LARGE:.0f}x floor"
        )
    else:  # smoke sizes: equality already asserted, just require a win
        assert largest["barrier_speedup"] > 1.0, largest
    for row in serial_rows:
        if row["accept_rate"] < LOW_ACCEPT:
            assert row["serial_speedup"] > 1.0, row


def _report(
    barrier_rows: list[dict[str, object]], serial_rows: list[dict[str, object]]
) -> str:
    return format_table(
        barrier_rows,
        title="MCMC sweep barrier: rebuild oracle vs incremental delta-apply",
    ) + "\n" + format_table(
        serial_rows,
        title="Serial Metropolis sweep: per-vertex loop vs windowed batch kernel",
    )


def test_mcmc_phase_speedup(benchmark):
    from benchmarks.conftest import run_once
    from repro.bench.reporting import write_report

    barrier_rows, serial_rows = run_once(benchmark, mcmc_phase_rows)
    write_report("mcmc_phase", _report(barrier_rows, serial_rows))
    _check_rows(barrier_rows, serial_rows)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"smoke sizes {QUICK_SIZES} with 3 barriers (CI)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rows = mcmc_phase_rows(QUICK_SIZES, barriers=3)
    else:
        rows = mcmc_phase_rows()
    print(_report(*rows))
    _check_rows(*rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
