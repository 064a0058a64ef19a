"""Tests for graph generators."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.exceptions import GraphError, ValidationError
from repro.graphs import generators
from repro.graphs.connectivity import is_bipartite, is_connected
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    from_networkx,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    watts_strogatz_graph,
)


class TestCompleteGraph:
    def test_edge_count(self):
        graph = complete_graph(5)
        assert graph.num_edges == 10

    def test_regular(self):
        assert complete_graph(4).is_regular()


class TestCycleGraph:
    def test_structure(self):
        graph = cycle_graph(5)
        assert graph.num_edges == 5
        assert all(graph.degree(i) == 2 for i in range(5))

    def test_even_cycle_bipartite(self):
        assert is_bipartite(cycle_graph(6))

    def test_odd_cycle_not_bipartite(self):
        assert not is_bipartite(cycle_graph(7))

    def test_too_small(self):
        with pytest.raises(ValidationError):
            cycle_graph(2)


class TestPathGraph:
    def test_structure(self):
        graph = path_graph(4)
        assert graph.num_edges == 3
        assert graph.degree(0) == 1
        assert graph.degree(1) == 2

    def test_always_bipartite(self):
        assert is_bipartite(path_graph(9))


class TestStarGraph:
    def test_structure(self):
        graph = star_graph(6)
        assert graph.num_nodes == 7
        assert graph.degree(0) == 6
        assert all(graph.degree(i) == 1 for i in range(1, 7))

    def test_bipartite(self):
        assert is_bipartite(star_graph(3))


class TestGridGraph:
    def test_node_count(self):
        assert grid_graph(3, 4).num_nodes == 12

    def test_interior_degree(self):
        graph = grid_graph(3, 3)
        assert graph.degree(4) == 4  # center

    def test_periodic_is_regular(self):
        graph = grid_graph(4, 4, periodic=True)
        assert graph.is_regular()
        assert graph.degree(0) == 4

    def test_connected(self):
        assert is_connected(grid_graph(5, 5))


class TestRandomRegular:
    def test_regularity(self):
        graph = random_regular_graph(6, 100, rng=0)
        assert graph.is_regular()
        assert graph.degree(0) == 6

    def test_deterministic_with_seed(self):
        a = random_regular_graph(4, 30, rng=5)
        b = random_regular_graph(4, 30, rng=5)
        assert a == b

    def test_parity_validation(self):
        with pytest.raises(ValidationError):
            random_regular_graph(3, 7, rng=0)

    def test_degree_bound(self):
        with pytest.raises(ValidationError):
            random_regular_graph(10, 10, rng=0)


class TestErdosRenyi:
    def test_edge_probability_extremes(self):
        empty = erdos_renyi_graph(20, 0.0, rng=0)
        assert empty.num_edges == 0
        full = erdos_renyi_graph(10, 1.0, rng=0)
        assert full.num_edges == 45

    def test_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            erdos_renyi_graph(10, 1.5, rng=0)


class TestBarabasiAlbert:
    def test_heavy_tail(self):
        graph = barabasi_albert_graph(500, 3, rng=0)
        degrees = graph.degrees()
        assert degrees.max() > 3 * degrees.min()

    def test_connected(self):
        assert is_connected(barabasi_albert_graph(200, 2, rng=1))

    def test_rejects_attachment_too_large(self):
        with pytest.raises(ValidationError):
            barabasi_albert_graph(5, 5, rng=0)


class TestWattsStrogatz:
    def test_connected_variant(self):
        graph = watts_strogatz_graph(100, 6, 0.3, rng=0)
        assert is_connected(graph)

    def test_k_equal_n_is_complete(self):
        assert watts_strogatz_graph(7, 7, 0.5, rng=0) == complete_graph(7)

    @pytest.mark.parametrize("nearest_neighbors", [1, 11])
    def test_rejects_rings_that_cannot_connect(self, nearest_neighbors):
        with pytest.raises(ValidationError, match="nearest_neighbors"):
            watts_strogatz_graph(10, nearest_neighbors, 0.2, rng=0)

    def test_gives_up_after_the_tries_as_a_graph_error(self, monkeypatch):
        draws = []

        def never_connected(graph):
            draws.append(graph)
            return False

        monkeypatch.setattr(generators, "is_connected", never_connected)
        with pytest.raises(GraphError, match="no connected Watts-Strogatz"):
            watts_strogatz_graph(20, 4, 0.5, rng=0)
        assert len(draws) == generators.WATTS_STROGATZ_TRIES


class TestFromNetworkx:
    def test_arbitrary_labels(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edges_from([("a", "b"), ("b", "c")])
        graph = from_networkx(nx_graph)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_drops_self_loops(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edges_from([(0, 0), (0, 1)])
        graph = from_networkx(nx_graph)
        assert graph.num_edges == 1


@pytest.mark.parametrize(
    "name, build",
    [
        ("random_regular_graph", lambda: random_regular_graph(4, 60, rng=1)),
        ("fast_gnp_random_graph", lambda: erdos_renyi_graph(60, 0.1, rng=1)),
        ("barabasi_albert_graph", lambda: barabasi_albert_graph(60, 2, rng=1)),
        (
            "connected_watts_strogatz_graph",
            lambda: watts_strogatz_graph(60, 4, 0.2, rng=1),
        ),
    ],
)
def test_generated_networkx_graph_is_freed_without_a_collection(name, build):
    """The port of networkx's ``name`` leaves nothing in a reference
    cycle: with the cyclic collector off, reference counting alone frees
    everything the build made, so a collection afterwards finds nothing."""
    import gc

    gc.collect()
    gc.disable()
    try:
        graph = build()
        assert graph.num_nodes == 60
        del graph
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_runtime_never_imports_networkx():
    """networkx is a test-only dependency: importing the public surfaces
    and building every registered graph kind leaves it unloaded."""
    code = textwrap.dedent(
        """
        import sys

        import numpy as np

        import repro
        import repro.api
        import repro.scenario
        import repro.serve
        from repro.scenario import GRAPHS

        for kind in GRAPHS.available():
            GRAPHS.build(kind, np.random.default_rng(0), **GRAPHS.example(kind))
        assert "networkx" not in sys.modules, "networkx was imported"
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
