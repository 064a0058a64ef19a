"""networkx as the reference for the CSR, components, bipartiteness,
subgraphs and the four random generators."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graphs import connectivity, generators
from repro.graphs.connectivity import (
    connected_components,
    is_bipartite,
    largest_connected_component,
)
from repro.graphs.generators import from_networkx
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


# ----------------------------------------------------------------------
# Generator ports: bit for bit what networkx draws from the same seed
# ----------------------------------------------------------------------
_SEEDS = range(8)


def _nx_seed(rng: int) -> int:
    """The integer seed a generator draws from ``rng`` for networkx."""
    return int(np.random.default_rng(rng).integers(0, 2**31 - 1))


def _assert_same_graph(ours: Graph, reference) -> None:
    expected = from_networkx(reference)
    assert ours.num_nodes == expected.num_nodes
    np.testing.assert_array_equal(ours.indptr, expected.indptr)
    np.testing.assert_array_equal(ours.indices, expected.indices)


@pytest.mark.parametrize(
    "degree, num_nodes",
    # d = n - 1, tiny n (whose attempts often fail and start over),
    # odd degrees, and sizes where the pairing needs several passes.
    [(1, 2), (2, 3), (3, 4), (2, 5), (4, 5), (3, 6), (5, 6), (4, 7),
     (5, 8), (7, 8), (3, 10), (5, 12), (6, 13), (3, 20), (8, 200), (4, 1000)],
)
def test_random_regular_matches_networkx(degree, num_nodes):
    for rng in _SEEDS:
        _assert_same_graph(
            generators.random_regular_graph(degree, num_nodes, rng=rng),
            nx.random_regular_graph(degree, num_nodes, seed=_nx_seed(rng)),
        )


def test_random_regular_grid_reaches_failed_attempts(monkeypatch):
    """The grid above exercises the start-over path, not just the
    first-attempt success."""
    failures = []
    attempt = generators._try_pairing

    def recording(*args):
        edges = attempt(*args)
        failures.append(edges is None)
        return edges

    monkeypatch.setattr(generators, "_try_pairing", recording)
    for rng in _SEEDS:
        generators.random_regular_graph(5, 12, rng=rng)
        generators.random_regular_graph(3, 6, rng=rng)
    assert any(failures)


@pytest.mark.parametrize("num_nodes", [1, 2, 10, 60, 150])
@pytest.mark.parametrize("edge_probability", [0.0, 0.01, 0.1, 0.5, 0.95, 1.0])
def test_erdos_renyi_matches_fast_gnp(num_nodes, edge_probability):
    for rng in _SEEDS:
        _assert_same_graph(
            generators.erdos_renyi_graph(num_nodes, edge_probability, rng=rng),
            nx.fast_gnp_random_graph(num_nodes, edge_probability, seed=_nx_seed(rng)),
        )


@pytest.mark.parametrize(
    "num_nodes, attachment",
    [(2, 1), (10, 1), (10, 3), (10, 9), (40, 2), (40, 5), (40, 39), (300, 3)],
)
def test_barabasi_albert_matches_networkx(num_nodes, attachment):
    for rng in _SEEDS:
        _assert_same_graph(
            generators.barabasi_albert_graph(num_nodes, attachment, rng=rng),
            nx.barabasi_albert_graph(num_nodes, attachment, seed=_nx_seed(rng)),
        )


@pytest.mark.parametrize(
    "num_nodes, nearest_neighbors",
    # k == n (complete), k == n - 1 (every rewiring skipped: each node
    # already neighbours all others), odd k, and a bare ring (k = 2).
    [(2, 2), (5, 4), (5, 5), (6, 5), (10, 2), (10, 3), (10, 4), (30, 5),
     (30, 6), (100, 2), (100, 7)],
)
@pytest.mark.parametrize("rewire_probability", [0.0, 0.1, 0.5, 1.0])
def test_watts_strogatz_matches_connected_variant(
    num_nodes, nearest_neighbors, rewire_probability
):
    for rng in _SEEDS:
        seed = _nx_seed(rng)
        try:
            reference = nx.connected_watts_strogatz_graph(
                num_nodes, nearest_neighbors, rewire_probability, seed=seed
            )
        except nx.NetworkXError:
            with pytest.raises(GraphError):
                generators.watts_strogatz_graph(
                    num_nodes, nearest_neighbors, rewire_probability, rng=rng
                )
            continue
        _assert_same_graph(
            generators.watts_strogatz_graph(
                num_nodes, nearest_neighbors, rewire_probability, rng=rng
            ),
            reference,
        )
