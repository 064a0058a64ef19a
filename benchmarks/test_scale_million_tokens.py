"""Million-token scale demonstration (the ROADMAP north star).

One exchange of 10^6 report tokens over a 10^5-node communication graph
must complete in seconds on commodity hardware — the flat-array engine
makes a round a handful of NumPy gathers, so the wall clock is memory
bandwidth, not interpreter overhead.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs.generators import random_regular_graph
from repro.netsim import kernels
from repro.netsim.engine import VectorizedExchange
from repro.netsim.kernels import NUMBA_AVAILABLE, resolve_implementation

_NUM_NODES = 100_000
_TOKENS_PER_NODE = 10
_DEGREE = 16
_ROUNDS = 16
#: Generous ceiling for slow CI runners; locally this runs in ~3 s.
_TIME_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="module")
def big_graph():
    return random_regular_graph(_DEGREE, _NUM_NODES, rng=0)


def test_million_token_exchange_runs_in_seconds(big_graph):
    origins = np.repeat(
        np.arange(_NUM_NODES, dtype=np.int64), _TOKENS_PER_NODE
    )
    engine = VectorizedExchange(big_graph, rng=0)
    engine.seed_tokens(origins)

    start = time.perf_counter()
    engine.run(_ROUNDS)
    elapsed = time.perf_counter() - start
    print(
        f"\n{origins.size:,} tokens x {_ROUNDS} rounds on "
        f"{_NUM_NODES:,} nodes: {elapsed:.2f}s"
    )

    assert elapsed < _TIME_BUDGET_SECONDS
    counts = engine.held_counts()
    assert counts.sum() == origins.size
    # Mixing sanity: allocation concentrates around the stationary mean
    # of 10 tokens/node rather than staying at the seeded point mass.
    assert counts.max() < 10 * _TOKENS_PER_NODE
    # Meters aggregated vectorially: every round moved every token.
    assert engine.meters.total_messages_sent() == origins.size * _ROUNDS


def test_million_token_compiled_speedup(big_graph, monkeypatch):
    """The numba kernels' acceptance floor at the north-star scale.

    The engine on its resolved kernels vs the same engine forced onto
    its NumPy round: identical seeded allocation, and with numba >=3x
    faster on the fused multi-round path (without numba both legs run
    the NumPy round; modest timing slack).
    """
    origins = np.repeat(
        np.arange(_NUM_NODES, dtype=np.int64), _TOKENS_PER_NODE
    )
    timings = {}
    counts = {}
    for leg in ("numpy", "resolved"):
        with monkeypatch.context() as patch:
            if leg == "numpy":
                patch.setitem(kernels._RESOLVED, "implementation", "numpy")
            engine = VectorizedExchange(big_graph, rng=0)
        engine.seed_tokens(origins)
        start = time.perf_counter()
        engine.run(_ROUNDS)
        timings[leg] = time.perf_counter() - start
        counts[leg] = engine.held_counts()
    vectorized = timings["numpy"]
    compiled = timings["resolved"]
    speedup = vectorized / compiled
    print(
        f"\n{origins.size:,} tokens x {_ROUNDS} rounds: numpy round "
        f"{vectorized:.2f}s, kernels[{resolve_implementation()}] "
        f"{compiled:.2f}s -> {speedup:.1f}x"
    )
    np.testing.assert_array_equal(counts["numpy"], counts["resolved"])
    assert compiled < _TIME_BUDGET_SECONDS
    if NUMBA_AVAILABLE:
        assert speedup >= 3.0, (
            f"numba kernels only {speedup:.1f}x faster than the NumPy round"
        )
    else:
        assert compiled <= vectorized * 1.5, (
            f"second NumPy leg {1 / speedup:.2f}x slower than the first"
        )


def test_bench_million_token_round(benchmark, big_graph):
    """pytest-benchmark timing of single million-token rounds."""
    origins = np.repeat(
        np.arange(_NUM_NODES, dtype=np.int64), _TOKENS_PER_NODE
    )
    engine = VectorizedExchange(big_graph, rng=0)
    engine.seed_tokens(origins)
    benchmark.pedantic(engine.run_round, rounds=5, iterations=1)
    assert engine.held_counts().sum() == origins.size


def test_bench_million_token_compiled_run(benchmark, big_graph):
    """pytest-benchmark timing of multi-round ``run`` — the fused driver
    when numba is installed."""
    origins = np.repeat(
        np.arange(_NUM_NODES, dtype=np.int64), _TOKENS_PER_NODE
    )
    engine = VectorizedExchange(big_graph, rng=0)
    engine.seed_tokens(origins)
    benchmark.pedantic(lambda: engine.run(5), rounds=3, iterations=1)
    assert engine.held_counts().sum() == origins.size
