"""Unit tests for the CSR graph substrate."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph
from repro.errors import GraphValidationError
from repro.utils.arrays import stable_argsort
from tests.conftest import make_line_graph


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 8
        assert tiny_graph.num_edges == 14

    def test_empty_edges(self):
        g = Graph(3, np.empty((0, 2), dtype=np.int64))
        assert g.num_edges == 0
        assert g.degree.tolist() == [0, 0, 0]

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphValidationError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError):
            Graph(2, np.array([[0, 2]]))
        with pytest.raises(GraphValidationError):
            Graph(2, np.array([[-1, 0]]))

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphValidationError):
            Graph(0, np.empty((0, 2), dtype=np.int64))

    def test_arrays_are_readonly(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.out_nbrs[0] = 99
        with pytest.raises(ValueError):
            tiny_graph.degree[0] = 99


class TestDegrees:
    def test_degree_sums(self, tiny_graph):
        assert tiny_graph.out_degree.sum() == tiny_graph.num_edges
        assert tiny_graph.in_degree.sum() == tiny_graph.num_edges
        np.testing.assert_array_equal(
            tiny_graph.degree, tiny_graph.out_degree + tiny_graph.in_degree
        )

    def test_specific_degrees(self, tiny_graph):
        # vertex 1 has out-edges to 2, 0, 0 and in-edge from 0.
        assert tiny_graph.out_degree[1] == 3
        assert tiny_graph.in_degree[1] == 1

    def test_self_loops(self, tiny_graph):
        assert tiny_graph.self_loops[2] == 1
        assert tiny_graph.self_loops.sum() == 1

    def test_line_graph_degrees(self):
        g = make_line_graph(5)
        assert g.out_degree.tolist() == [1, 1, 1, 1, 0]
        assert g.in_degree.tolist() == [0, 1, 1, 1, 1]


class TestAdjacencyViews:
    def test_out_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.out_neighbors(1).tolist()) == [0, 0, 2]

    def test_in_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.in_neighbors(0).tolist()) == [1, 1, 3]

    def test_incident_concatenation(self, tiny_graph):
        inc = tiny_graph.incident_neighbors(1)
        assert len(inc) == tiny_graph.degree[1]
        assert sorted(inc.tolist()) == [0, 0, 0, 2]

    def test_incident_counts_self_loops_twice(self, tiny_graph):
        inc = tiny_graph.incident_neighbors(2)
        # degree counts the self loop in both out and in.
        assert len(inc) == tiny_graph.degree[2]
        assert inc.tolist().count(2) == 2

    def test_views_are_views(self, tiny_graph):
        view = tiny_graph.out_neighbors(1)
        assert view.base is tiny_graph.out_nbrs

    def test_isolated_vertex(self):
        g = Graph(3, np.array([[0, 1]]))
        assert len(g.incident_neighbors(2)) == 0

    def test_csr_matches_edge_list(self, medium_graph):
        graph, _ = medium_graph
        for v in range(0, graph.num_vertices, 17):
            expected_out = sorted(
                graph.edges[graph.edges[:, 0] == v][:, 1].tolist()
            )
            assert sorted(graph.out_neighbors(v).tolist()) == expected_out
            expected_in = sorted(
                graph.edges[graph.edges[:, 1] == v][:, 0].tolist()
            )
            assert sorted(graph.in_neighbors(v).tolist()) == expected_in

    @settings(max_examples=80, deadline=None)
    @given(
        num_vertices=st.integers(1, 40),
        edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
        loops=st.integers(0, 5),
    )
    def test_incident_csr_is_out_then_in_per_vertex(self, num_vertices, edges, loops):
        """The incident list of every vertex, defined one vertex at a time."""
        pairs = [(u % num_vertices, w % num_vertices) for u, w in edges]
        pairs += [(v % num_vertices, v % num_vertices) for v in range(loops)]
        g = Graph(num_vertices, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        expected = [
            np.concatenate([g.out_neighbors(v), g.in_neighbors(v)])
            for v in range(num_vertices)
        ]
        ptr = np.concatenate([[0], np.cumsum([len(e) for e in expected])])
        np.testing.assert_array_equal(g.inc_ptr, ptr)
        np.testing.assert_array_equal(
            g.inc_nbrs, np.concatenate(expected) if pairs else np.empty(0)
        )
        assert g.inc_nbrs.dtype == np.int64


class TestDerivedGraphs:
    def test_reversed_swaps_degrees(self, tiny_graph):
        rev = tiny_graph.reversed()
        np.testing.assert_array_equal(rev.out_degree, tiny_graph.in_degree)
        np.testing.assert_array_equal(rev.in_degree, tiny_graph.out_degree)

    def test_reversed_twice_is_identity(self, tiny_graph):
        assert tiny_graph.reversed().reversed() == tiny_graph

    def test_equality_ignores_edge_order(self):
        e = np.array([[0, 1], [1, 2]])
        assert Graph(3, e) == Graph(3, e[::-1].copy())

    def test_inequality_different_edges(self):
        assert Graph(3, np.array([[0, 1]])) != Graph(3, np.array([[1, 0]]))

    def test_density(self):
        g = Graph(4, np.array([[0, 1], [2, 3]]))
        assert g.density == pytest.approx(2 / 16)

    def test_to_undirected_edges_canonical(self, tiny_graph):
        und = tiny_graph.to_undirected_edges()
        assert (und[:, 0] <= und[:, 1]).all()
        assert und.shape == tiny_graph.edges.shape


class TestDigest:
    def test_digest_is_stable_and_hex(self, tiny_graph):
        d = tiny_graph.digest()
        assert d == tiny_graph.digest()
        assert len(d) == 64
        int(d, 16)  # valid hex

    def test_digest_invariant_under_edge_order(self):
        edges = np.array([[0, 1], [2, 3], [1, 2], [3, 0], [0, 1]])
        shuffled = edges[[4, 2, 0, 3, 1]]
        assert Graph(4, edges).digest() == Graph(4, shuffled).digest()

    def test_digest_covers_isolated_vertices(self):
        edges = np.array([[0, 1], [1, 2]])
        # Same edge multiset, one extra degree-0 vertex: different graphs,
        # different addresses.
        assert Graph(3, edges).digest() != Graph(4, edges).digest()

    def test_digest_distinguishes_edge_content(self):
        assert (
            Graph(3, np.array([[0, 1]])).digest()
            != Graph(3, np.array([[0, 2]])).digest()
        )

    def test_digest_counts_multiplicity(self):
        once = Graph(3, np.array([[0, 1], [1, 2]]))
        twice = Graph(3, np.array([[0, 1], [0, 1], [1, 2]]))
        assert once.digest() != twice.digest()


def _spread(count: int, num_vertices: int, a: int, b: int) -> np.ndarray:
    """Deterministic pseudo-random endpoints in ``[0, num_vertices)``."""
    i = np.arange(count, dtype=np.int64)
    return (i * a + (i * i) % 104729 + b) % num_vertices


def _pinned_graph(name: str) -> Graph:
    """The graphs whose digests ``fixtures/graph_digests.json`` pins."""
    if name == "multigraph":
        edges = [[3, 1], [0, 1], [0, 1], [5, 2], [0, 1], [3, 1], [2, 5], [1, 0]]
        return Graph(6, np.array(edges))
    if name == "self-loops":
        edges = [[2, 2], [0, 1], [4, 4], [2, 2], [1, 2], [0, 0], [4, 3]]
        return Graph(5, np.array(edges))
    if name == "isolated-vertices":
        return Graph(12, np.array([[3, 0], [0, 3], [1, 2], [2, 1], [0, 1]]))
    if name == "empty":
        return Graph(4, np.empty((0, 2), dtype=np.int64))
    if name == "one-vertex":
        return Graph(1, np.array([[0, 0], [0, 0]]))
    if name == "dense-ish":
        # V=800, E=16k: the size of the fit benchmark's graphs.
        src = _spread(16_000, 800, 2654435761, 12345)
        dst = _spread(16_000, 800, 40503, 977)
        return Graph(800, np.stack([src, dst], axis=1))
    if name == "wide":
        # V > 2^16: the key src * V + dst needs three 16-bit digits.
        src = _spread(20_000, 70_001, 2654435761, 7)
        dst = _spread(20_000, 70_001, 69_997, 31)
        edges = np.stack([src, dst], axis=1)
        edges = np.concatenate([edges, edges[:500], [[70_000, 70_000]]])
        return Graph(70_001, edges)
    raise KeyError(name)


GRAPH_DIGESTS = Path(__file__).parent / "fixtures" / "graph_digests.json"


PINNED_GRAPHS = (
    "multigraph", "self-loops", "isolated-vertices", "empty", "one-vertex",
    "dense-ish", "wide",
)


class TestDigestFixture:
    """``Graph.digest()`` is a store address: it must never change."""

    @pytest.mark.parametrize("name", PINNED_GRAPHS)
    def test_digest_is_pinned(self, name):
        pinned = json.loads(GRAPH_DIGESTS.read_text())
        assert sorted(pinned) == sorted(PINNED_GRAPHS)
        assert _pinned_graph(name).digest() == pinned[name]

    def test_wide_graph_needs_three_key_digits(self):
        assert _pinned_graph("wide").num_vertices ** 2 > 1 << 32


class TestStableArgsort:
    """The radix sort behind graph construction matches numpy's."""

    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.sampled_from([0, 1, 8, 15, 16, 17, 31, 32, 33, 40, 62]),
        offset=st.integers(-1, 1),
        raw=st.lists(st.integers(0, (1 << 62) - 1), max_size=200),
        repeat=st.integers(1, 4),
    )
    def test_matches_numpy_stable_argsort(self, bits, offset, raw, repeat):
        bound = max(1, (1 << bits) + offset)
        keys = np.array([x % bound for x in raw] * repeat, dtype=np.int64)
        np.testing.assert_array_equal(
            stable_argsort(keys, bound), np.argsort(keys, kind="stable")
        )

    @settings(max_examples=80, deadline=None)
    @given(
        num_vertices=st.integers(1, 40),
        edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
    )
    def test_out_and_in_csr_follow_the_argsort_definition(self, num_vertices, edges):
        pairs = np.array(
            [(u % num_vertices, w % num_vertices) for u, w in edges], dtype=np.int64
        ).reshape(-1, 2)
        g = Graph(num_vertices, pairs)
        src, dst = pairs[:, 0], pairs[:, 1]
        np.testing.assert_array_equal(g.out_nbrs, dst[np.argsort(src, kind="stable")])
        np.testing.assert_array_equal(g.in_nbrs, src[np.argsort(dst, kind="stable")])
        ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=num_vertices))])
        np.testing.assert_array_equal(g.out_ptr, ptr)
        ptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=num_vertices))])
        np.testing.assert_array_equal(g.in_ptr, ptr)
