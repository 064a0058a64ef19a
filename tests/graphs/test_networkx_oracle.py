"""networkx as the reference for the CSR, components, bipartiteness and subgraphs."""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import connectivity
from repro.graphs.connectivity import (
    connected_components,
    is_bipartite,
    largest_connected_component,
)
from repro.graphs.graph import Graph


@st.composite
def graph_cases(draw):
    """``(n, edges, nodes)``: a small edge list with duplicates, both
    orientations and isolated nodes, plus an ordered node subset."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=3 * n))
    if edges:
        repeats = st.lists(st.sampled_from(edges), max_size=n)
        edges += draw(repeats)
        edges += [(v, u) for u, v in draw(repeats)]
    nodes = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return n, edges, nodes


def reference(n, edges):
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(n))
    nx_graph.add_edges_from(edges)
    return nx_graph


def assert_csr_equal(graph, nx_graph):
    """``graph``'s CSR equals networkx's sorted CSR over nodes ``0 .. n-1``."""
    assert graph.num_nodes == nx_graph.number_of_nodes()
    if graph.num_nodes == 0:  # networkx refuses an empty node list
        np.testing.assert_array_equal(graph.indptr, [0])
        assert graph.indices.size == 0
        return
    matrix = nx.to_scipy_sparse_array(
        nx_graph, nodelist=range(graph.num_nodes), format="csr"
    )
    matrix.sort_indices()
    np.testing.assert_array_equal(graph.indptr, matrix.indptr)
    np.testing.assert_array_equal(graph.indices, matrix.indices)


@given(graph_cases())
@settings(max_examples=150, deadline=None)
def test_matches_networkx(case):
    n, edges, nodes = case
    graph = Graph(n, edges)
    nx_graph = reference(n, edges)

    assert_csr_equal(graph, nx_graph)
    assert graph.num_edges == nx_graph.number_of_edges()

    expected_components = sorted(
        (sorted(component) for component in nx.connected_components(nx_graph)),
        key=lambda component: (-len(component), component[0]),
    )
    assert [c.tolist() for c in connected_components(graph)] == expected_components
    assert is_bipartite(graph) == nx.is_bipartite(nx_graph)

    induced = nx.relabel_nodes(
        nx_graph.subgraph(nodes), {node: i for i, node in enumerate(nodes)}
    )
    assert_csr_equal(graph.subgraph(nodes), induced)


def test_equal_size_components_order_by_smallest_node():
    graph = Graph(8, [(7, 6), (6, 4), (5, 2), (0, 5)])
    components = connected_components(graph)
    assert [c.tolist() for c in components] == [[0, 2, 5], [4, 6, 7], [1], [3]]
    assert largest_connected_component(graph) == Graph(3, [(0, 2), (1, 2)])


def test_component_order_ignores_label_numbering(monkeypatch):
    """The (-size, smallest node) order does not lean on how SciPy numbers
    components: reversed labels give the same list."""
    graph = Graph(8, [(7, 6), (6, 4), (5, 2), (0, 5)])
    count, labels = connectivity._component_labels(graph.adjacency_matrix())
    monkeypatch.setattr(
        connectivity, "_component_labels", lambda adjacency: (count, count - 1 - labels)
    )
    components = connected_components(graph)
    assert [c.tolist() for c in components] == [[0, 2, 5], [4, 6, 7], [1], [3]]
