"""Exchange shootout: the per-message oracle vs the array engine.

The acceptance target for the vectorized engine is a >=10x speedup over
the per-message oracle (:class:`repro.testing.oracle.FaithfulNetwork`)
on a 10,000-node, 16-round exchange, while
producing the *identical* seeded held-count vector (the shared RNG
contract makes the comparison exact, not statistical).  A second shape
times the engine's NumPy round where
per-round reordering dominates: the irregular replica-sweep graph over
its mixing time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets.synthetic import build_dataset
from repro.graphs.generators import random_regular_graph
from repro.netsim.engine import VectorizedExchange
from repro.netsim.network import RoundBasedNetwork
from repro.testing.oracle import FaithfulNetwork

_NUM_NODES = 10_000
_DEGREE = 8
_ROUNDS = 16

#: The replica-sweep shape: the google stand-in at 3% scale (~25k nodes,
#: heavy-tailed degrees), one token per user, run for its mixing time.
_GOOGLE_SCALE = 0.03
_GOOGLE_SEED = 2022
_IRREGULAR_ROUNDS = 122


@pytest.fixture(scope="module")
def shootout_graph():
    return random_regular_graph(_DEGREE, _NUM_NODES, rng=0)


def _timed_exchange(graph, network_type):
    network = network_type(graph, rng=0)
    network.seed_items({i: [i] for i in range(graph.num_nodes)})
    start = time.perf_counter()
    network.run_exchange(_ROUNDS)
    elapsed = time.perf_counter() - start
    return elapsed, network.held_counts()

def test_vectorized_speedup_over_faithful(shootout_graph):
    faithful_time, faithful_counts = _timed_exchange(
        shootout_graph, FaithfulNetwork
    )
    vectorized_time, vectorized_counts = _timed_exchange(
        shootout_graph, RoundBasedNetwork
    )
    speedup = faithful_time / vectorized_time
    print(
        f"\nfaithful: {faithful_time:.3f}s  vectorized: {vectorized_time:.3f}s"
        f"  speedup: {speedup:.1f}x ({_NUM_NODES} nodes, {_ROUNDS} rounds)"
    )
    # Same seed => bit-identical allocation on the oracle and the engine.
    np.testing.assert_array_equal(faithful_counts, vectorized_counts)
    assert speedup >= 10.0, (
        f"vectorized engine only {speedup:.1f}x faster than the oracle"
    )


def _bench_engine(benchmark, graph):
    def exchange():
        network = RoundBasedNetwork(graph, rng=0, backend="vectorized")
        network.seed_items({i: [i] for i in range(graph.num_nodes)})
        network.run_exchange(_ROUNDS)
        return network.held_counts()

    counts = benchmark(exchange)
    assert counts.sum() == _NUM_NODES


def test_bench_vectorized_exchange(benchmark, shootout_graph):
    """pytest-benchmark timing of the engine's NumPy round (JSON artifact)."""
    _bench_engine(benchmark, shootout_graph)


@pytest.fixture(scope="module")
def irregular_graph():
    return build_dataset(
        "google", scale=_GOOGLE_SCALE, seed=_GOOGLE_SEED
    ).graph


def test_bench_numpy_round_irregular(benchmark, irregular_graph):
    """pytest-benchmark timing of the NumPy round on the irregular
    replica-sweep shape, where the per-round reorder dominates (JSON
    artifact)."""
    num_nodes = irregular_graph.num_nodes

    def fresh_engine():
        engine = VectorizedExchange(irregular_graph, rng=0)
        engine.seed_tokens(np.arange(num_nodes))
        return (engine,), {}

    def exchange(engine):
        engine.run(_IRREGULAR_ROUNDS)
        return engine

    engine = benchmark.pedantic(
        exchange, setup=fresh_engine, rounds=5, iterations=1
    )
    assert engine.held_counts().sum() == num_nodes
    assert (
        engine.meters.total_messages_sent() == num_nodes * _IRREGULAR_ROUNDS
    )
