"""Tests for graph generators."""

from __future__ import annotations

import hashlib
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


def _csr_digest(graph) -> str:
    sha = hashlib.sha256()
    sha.update(graph.indptr.astype("<i8").tobytes())
    sha.update(b"|")
    sha.update(graph.indices.astype("<i8").tobytes())
    return sha.hexdigest()


#: sha256 of ``(indptr, indices)`` for seeded random graphs, captured
#: while the generators still called networkx.  They pin each generator's
#: stream independently of the installed networkx version.
FROZEN_GRAPHS = {
    "k_regular-3-20-0": (
        lambda: random_regular_graph(3, 20, rng=0),
        "721edbb5a0182080d9a559bd91afcd8bfe056b17f9cf6c3bacc31de251aa4213",
    ),
    "k_regular-5-12-0": (
        lambda: random_regular_graph(5, 12, rng=0),
        "d82be9042b1bec8a1012437f97972d9b3b6940d384a604828d794e4aaaa85744",
    ),
    "k_regular-7-8-2": (
        lambda: random_regular_graph(7, 8, rng=2),
        "a8aa096dbdb7dbe19991ef004a962660aa571f58e00c3f67ddf4434c43b19736",
    ),
    "k_regular-8-1000-1": (
        lambda: random_regular_graph(8, 1000, rng=1),
        "296e90101ca23bd530cc4612035be63eb60c4863b927586457048b90bfb2f3cf",
    ),
    "erdos_renyi-200-0.05-3": (
        lambda: erdos_renyi_graph(200, 0.05, rng=3),
        "f5f6b8a6d3c1b730d7ed31bad166aa9a9e4abea0ebe30b86019c6ed25d32023c",
    ),
    "erdos_renyi-50-0.5-1": (
        lambda: erdos_renyi_graph(50, 0.5, rng=1),
        "2c446fdf5438571cc2f019c1d60e64ccb54584370fcc5fbaf81261c96bbcf9f7",
    ),
    "erdos_renyi-2000-0.002-5": (
        lambda: erdos_renyi_graph(2000, 0.002, rng=5),
        "d40f540fa78af27d59d7f92649b156fc3204a8a312d217e55d5f89e20af92af3",
    ),
    "barabasi_albert-96-3-20240": (
        lambda: barabasi_albert_graph(96, 3, rng=20240),
        "335a1411c1d593af0fe85bf6fdcdd8199c3cfdedc8b7cd6ff416a143c9904ed1",
    ),
    "barabasi_albert-300-2-4": (
        lambda: barabasi_albert_graph(300, 2, rng=4),
        "d96c148eb7ea87241b6945252d086f1f944ba1cb57cc1b4d19a09500710ae86e",
    ),
    "barabasi_albert-50-49-0": (
        lambda: barabasi_albert_graph(50, 49, rng=0),
        "de048e8c62066c02ba64c36f7120d5d466d604df1032600f0b29bb10c4446054",
    ),
    "watts_strogatz-100-6-0.3-0": (
        lambda: watts_strogatz_graph(100, 6, 0.3, rng=0),
        "f488003e1aa3dd0a7223e9bbcfa5f30d0a72455d36873b83f3609f637179d7d1",
    ),
    "watts_strogatz-64-5-0.2-1": (
        lambda: watts_strogatz_graph(64, 5, 0.2, rng=1),
        "8eb7c753eb929771fea722f84f703eb4b205f3862dfc5bedeb6a6ae5839d8e97",
    ),
    "watts_strogatz-30-4-0.9-2": (
        lambda: watts_strogatz_graph(30, 4, 0.9, rng=2),
        "2607e58aabaed99a6e3c8941d3d8afa80e4a57874d42ef531aaa3d0f10dd9b5d",
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_GRAPHS))
def test_seeded_graph_matches_frozen_digest(case):
    build, expected = FROZEN_GRAPHS[case]
    assert _csr_digest(build()) == expected


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
