"""pytest-benchmark timing of the Section 4.4 secure protocol.

The per-message driver at 128 users and 6 rounds; modular
exponentiation dominates the run.
"""

from __future__ import annotations

from repro.graphs.generators import random_regular_graph
from repro.protocols.secure import run_secure_protocol

_NUM_USERS = 128
_DEGREE = 6
_ROUNDS = 6


def test_bench_secure_protocol(benchmark):
    """pytest-benchmark timing of the secure run (JSON artifact)."""
    graph = random_regular_graph(_DEGREE, _NUM_USERS, rng=0)
    values = list(range(_NUM_USERS))

    def secure():
        return run_secure_protocol(graph, _ROUNDS, values, rng=0)

    result = benchmark.pedantic(secure, rounds=3, iterations=1)
    assert result.num_reports == _NUM_USERS
