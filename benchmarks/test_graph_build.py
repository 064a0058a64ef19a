"""Graph-build stage: edge array -> canonical CSR -> connectivity.

Times the graph builds that precede any exchange: the
``replica_sweep`` google stand-in (scale 0.03, seed 2022: configuration
model, largest connected component, Gamma calibration), a 2x10^5-node
configuration model through ``Graph`` plus ``require_ergodic``, and a
2x10^5-node random 8-regular graph from the pairing generator (the
``run_cold`` graph kind; recorded, not gated).
"""

from __future__ import annotations

import numpy as np

from repro.datasets import synthetic
from repro.datasets.synthetic import build_dataset, configuration_model_graph
from repro.graphs.connectivity import is_connected, require_ergodic
from repro.graphs.generators import random_regular_graph

_NUM_NODES = 200_000
_DEGREE = 8


def test_bench_google_stand_in(benchmark):
    """The replica-sweep graph, built cold (the dataset cache is cleared)."""
    dataset = benchmark.pedantic(
        build_dataset,
        args=("google",),
        kwargs={"scale": 0.03, "seed": 2022},
        setup=synthetic._build_cached.cache_clear,
        rounds=3,
        iterations=1,
    )
    assert dataset.graph.num_nodes > 0.9 * dataset.spec.scaled_nodes(0.03)
    assert is_connected(dataset.graph)


def test_bench_configuration_model_ergodic(benchmark):
    """Stub pairing -> ``Graph`` -> Theorem 4.3 check at 2x10^5 nodes."""
    degrees = np.full(_NUM_NODES, _DEGREE)

    def build():
        graph = configuration_model_graph(degrees, rng=0)
        require_ergodic(graph)
        return graph

    graph = benchmark.pedantic(build, rounds=3, iterations=1)
    assert graph.num_nodes == _NUM_NODES
    # Erasing loops and multi-edges loses only a handful of the 8n/2 edges.
    assert graph.num_edges > 0.99 * _NUM_NODES * _DEGREE / 2


def test_bench_random_regular(benchmark):
    """Steger-Wormald pairing at 2x10^5 nodes, k=8 (seed 0 makes two
    attempts: the first ends with stubs that admit no new edge)."""
    graph = benchmark.pedantic(
        random_regular_graph,
        args=(_DEGREE, _NUM_NODES),
        kwargs={"rng": 0},
        rounds=3,
        iterations=1,
    )
    assert graph.num_nodes == _NUM_NODES
    assert graph.is_regular() and graph.degree(0) == _DEGREE
