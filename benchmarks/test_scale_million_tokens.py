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
from repro.netsim.engine import VectorizedExchange

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


def test_bench_million_token_round(benchmark, big_graph):
    """pytest-benchmark timing of single million-token rounds."""
    origins = np.repeat(
        np.arange(_NUM_NODES, dtype=np.int64), _TOKENS_PER_NODE
    )
    engine = VectorizedExchange(big_graph, rng=0)
    engine.seed_tokens(origins)
    benchmark.pedantic(engine.run_round, rounds=5, iterations=1)
    assert engine.held_counts().sum() == origins.size
