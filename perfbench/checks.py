"""Output checks that share no code with the path the benchmark times.

Results are judged by recomputing what they claim: the MDL of each
partition from a fresh dense blockmodel, its NMI against the planted
truth with an NMI written here from the definition, and the snapshot
graphs of a stream rebuilt by counting edges instead of through the
session's ``apply_edge_batch``. A workload records every check under a
name; a run is correct only when every named check passed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np

from repro.graph.graph import Graph
from repro.sbm.blockmodel import Blockmodel

__all__ = [
    "FIT_SPANS",
    "Checks",
    "check_fit_spans",
    "check_result",
    "nmi",
    "recomputed_mdl",
    "snapshot_graphs",
]

#: Relative tolerance between a reported MDL and its recomputation.
MDL_RTOL = 1e-9
#: Slack, in seconds, between span bounds read from one clock.
SPAN_EPS = 1e-6
#: Spans whose wall time the coverage check splits into layer spans.
FIT_SPANS = ("core.cold_fit", "core.warm_refit")


class Checks:
    """Named checks; a name fails when any of its cases failed."""

    def __init__(self) -> None:
        self.cases: dict[str, int] = defaultdict(int)
        self.failures: dict[str, list[str]] = defaultdict(list)

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.cases[name] += 1
        if not ok:
            self.failures[name].append(detail)
        return ok

    @property
    def passed(self) -> bool:
        return not self.failures

    def report(self) -> list[str]:
        """One line per failed check: its name, count and first case."""
        return [
            f"{name}: {len(details)} of {self.cases[name]} cases failed; "
            f"first: {details[0]}"
            for name, details in sorted(self.failures.items())
        ]


def nmi(truth, labels) -> float:
    """Normalised mutual information, divided by the larger entropy."""
    _, a = np.unique(np.asarray(truth), return_inverse=True)
    _, b = np.unique(np.asarray(labels), return_inverse=True)
    joint = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(joint, (a.ravel(), b.ravel()), 1.0)
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    mutual = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])))
    entropy = max(float(-np.sum(pa * np.log(pa))), float(-np.sum(pb * np.log(pb))))
    return 1.0 if entropy == 0.0 else max(mutual, 0.0) / entropy


def recomputed_mdl(graph: Graph, assignment) -> float:
    """The MDL of ``assignment`` on ``graph``, from a fresh dense blockmodel."""
    labels = np.asarray(assignment, dtype=np.int64)
    return Blockmodel.from_assignment(graph, labels, storage="dense").mdl(graph)


def check_result(
    checks: Checks,
    label: str,
    graph: Graph,
    assignment,
    mdl: float,
    interrupted: bool,
    truth,
    nmi_floor: float,
) -> float:
    """Check one reported partition; returns its NMI against ``truth``."""
    checks.expect("not_interrupted", not interrupted, label)
    again = recomputed_mdl(graph, assignment)
    checks.expect(
        "mdl_recompute",
        abs(again - mdl) <= MDL_RTOL * abs(mdl),
        f"{label}: reported {mdl!r}, recomputed {again!r}",
    )
    score = nmi(truth, assignment)
    checks.expect(
        "nmi_floor", score >= nmi_floor, f"{label}: NMI {score:.4f} < {nmi_floor}"
    )
    return score


def _keys(edges: np.ndarray, width: int) -> np.ndarray:
    return edges[:, 0].astype(np.int64) * width + edges[:, 1]


def snapshot_graphs(stream) -> Iterator[Graph]:
    """Every snapshot graph of ``stream``, rebuilt from edge counts.

    Snapshot ``i + 1`` holds the edge multiset of snapshot ``i`` plus the
    batch's added edges minus its removed ones. Edge order differs from
    the session's graphs, which changes no block count and so no MDL.
    """
    width = stream.graph.num_vertices
    keys, counts = np.unique(_keys(stream.graph.edges, width), return_counts=True)
    yield stream.graph
    for batch in stream.batches:
        if batch.num_vertices not in (None, width):
            raise ValueError("snapshot graphs assume a fixed vertex count")
        add_keys, add_counts = np.unique(_keys(batch.add, width), return_counts=True)
        rem_keys, rem_counts = np.unique(_keys(batch.remove, width), return_counts=True)
        merged = np.union1d(keys, add_keys)
        total = np.zeros(merged.shape[0], dtype=np.int64)
        total[np.searchsorted(merged, keys)] += counts
        total[np.searchsorted(merged, add_keys)] += add_counts
        at = np.minimum(np.searchsorted(merged, rem_keys), merged.shape[0] - 1)
        if not np.array_equal(merged[at], rem_keys):
            raise ValueError("a batch removes an edge its snapshot lacks")
        total[at] -= rem_counts
        if (total < 0).any():
            raise ValueError("a batch removes more copies of an edge than exist")
        keep = total > 0
        keys, counts = merged[keep], total[keep]
        flat = np.repeat(keys, counts)
        yield Graph(width, np.stack([flat // width, flat % width], axis=1))


def check_fit_spans(checks: Checks, tracer, walls: dict[str, float]) -> None:
    """Check that the wall time of every fit span splits into layer spans.

    Every child span must lie inside its parent, and the self times of a
    fit span's subtree must add up to the fit's duration, which holds
    only when no two children overlap. What no child covers is the fit's
    own time (``core.fit_self_s``), so none is lost. ``walls`` maps the
    trace of a cold fit to the time the benchmark measured around
    ``run_sbp``; the fit span must account for at least 98% of it.
    """
    kids = tracer.children()
    selfs = tracer.self_seconds()
    for fit in (s for s in tracer.spans if s.name in FIT_SPANS):
        subtree, stack = [fit], [fit]
        while stack:
            parent = stack.pop()
            for child in kids.get(parent.sid, ()):
                checks.expect(
                    "span_nesting",
                    child.start >= parent.start - SPAN_EPS
                    and child.end <= parent.end + SPAN_EPS,
                    f"{child.name} escapes {parent.name} in {fit.trace}",
                )
                subtree.append(child)
                stack.append(child)
        total = sum(selfs[s.sid] for s in subtree)
        checks.expect(
            "span_coverage",
            abs(total - fit.seconds) <= SPAN_EPS * len(subtree),
            f"{fit.trace}: self times add to {total:.6f}s of a "
            f"{fit.seconds:.6f}s fit",
        )
    for trace, wall in walls.items():
        fits = [
            s.seconds for s in tracer.spans
            if s.trace == trace and s.name == "core.cold_fit"
        ]
        checks.expect(
            "fit_wall_covered",
            len(fits) == 1 and 0.98 * wall - 1e-3 <= fits[0] <= wall,
            f"{trace}: fit spans {fits} of a {wall:.6f}s run_sbp call",
        )
