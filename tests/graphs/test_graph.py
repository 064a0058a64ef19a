"""Tests for the CSR-backed Graph class."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError, ValidationError
from repro.graphs.generators import path_graph
from repro.graphs.graph import Graph


def edge_list_strategy(max_nodes: int = 12):
    """Random small edge lists over up to ``max_nodes`` nodes."""
    return st.integers(min_value=2, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=3 * n,
            ),
        )
    )


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph(0, [])
        assert graph.num_nodes == 0
        assert graph.num_edges == 0

    def test_single_edge(self):
        graph = Graph(2, [(0, 1)])
        assert graph.num_edges == 1
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)

    def test_duplicate_edges_collapse(self):
        graph = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_node(self):
        with pytest.raises(ValidationError):
            Graph(2, [(-1, 0)])

    def test_rejects_negative_num_nodes(self):
        with pytest.raises(ValidationError):
            Graph(-1, [])

    def test_rejects_malformed_edges(self):
        with pytest.raises(ValidationError):
            Graph(3, [(0, 1, 2)])  # type: ignore[list-item]

    def test_rejects_non_integer_endpoints(self):
        with pytest.raises(ValidationError, match="integers"):
            Graph(3, [(0, 1.7)])
        with pytest.raises(ValidationError, match="integers"):
            Graph(3, np.array([[0.0, 1.0]]))

    def test_accepts_integer_array_as_is(self):
        edges = np.array([[2, 1], [0, 1], [1, 2]], dtype=np.int32)
        graph = Graph(3, edges)
        assert graph == Graph(3, [(0, 1), (1, 2)])
        assert graph.indices.dtype == np.int64

    def test_empty_input_of_any_dtype(self):
        assert Graph(3, np.empty((0, 2))).num_edges == 0

    def test_from_edge_list_infers_size(self):
        graph = Graph.from_edge_list([(0, 5)])
        assert graph.num_nodes == 6


class TestAccessors:
    def test_degrees(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        np.testing.assert_array_equal(graph.degrees(), [3, 1, 1, 1])

    def test_degree_single(self):
        graph = Graph(3, [(0, 1)])
        assert graph.degree(0) == 1
        assert graph.degree(2) == 0

    def test_neighbors_sorted(self):
        graph = Graph(4, [(0, 3), (0, 1), (0, 2)])
        np.testing.assert_array_equal(graph.neighbors(0), [1, 2, 3])

    def test_neighbors_out_of_range(self):
        graph = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            graph.neighbors(5)

    def test_has_edge_false(self):
        graph = Graph(3, [(0, 1)])
        assert not graph.has_edge(0, 2)

    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        graph = Graph(3, edges)
        assert sorted(graph.edges()) == sorted(edges)

    def test_len(self):
        assert len(Graph(5, [])) == 5

    def test_is_regular_true(self):
        graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert graph.is_regular()

    def test_is_regular_false(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        assert not graph.is_regular()

    def test_repr(self):
        assert "num_nodes=3" in repr(Graph(3, [(0, 1)]))

    def test_readonly_views(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            graph.indices[0] = 99


class TestEqualityAndHash:
    def test_equal_graphs(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])

    def test_not_implemented_for_other_types(self):
        assert Graph(1, []) != "graph"


class TestConversions:
    def test_adjacency_matrix_symmetric(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        dense = graph.adjacency_matrix().toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert dense[0, 1] == 1.0
        assert dense[0, 2] == 0.0

    def test_to_networkx_roundtrip(self):

        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 3

    def test_subgraph(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = graph.subgraph([1, 2, 3])
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        assert sub.has_edge(0, 1)  # relabeled 1-2

    def test_subgraph_rejects_negative_ids(self):
        with pytest.raises(ValidationError, match="must lie in"):
            path_graph(5).subgraph([-1, 3])

    def test_subgraph_rejects_out_of_range_ids(self):
        with pytest.raises(ValidationError, match="must lie in"):
            path_graph(5).subgraph([7])

    def test_subgraph_rejects_duplicates(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(ValidationError):
            graph.subgraph([0, 0])


class TestFromCsr:
    def test_matches_constructor(self):
        reference = Graph(3, [(0, 1), (1, 2)])
        rebuilt = Graph.from_csr(3, reference.indptr, reference.indices)
        assert rebuilt == reference
        assert rebuilt.num_edges == reference.num_edges


class TestPropertyBased:
    @given(edge_list_strategy())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, data):
        n, edges = data
        graph = Graph(n, edges)
        assert int(graph.degrees().sum()) == 2 * graph.num_edges

    @given(edge_list_strategy())
    @settings(max_examples=60, deadline=None)
    def test_neighbor_symmetry(self, data):
        n, edges = data
        graph = Graph(n, edges)
        for u in range(n):
            for v in graph.neighbors(u):
                assert u in graph.neighbors(int(v))

    @given(edge_list_strategy())
    @settings(max_examples=40, deadline=None)
    def test_edges_roundtrip(self, data):
        n, edges = data
        graph = Graph(n, edges)
        rebuilt = Graph(n, list(graph.edges()))
        assert rebuilt == graph
