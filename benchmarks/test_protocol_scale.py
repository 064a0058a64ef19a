"""Algorithms 1 and 2 end to end at 2x10^5 users (informational).

Times ``run_all_protocol`` and ``run_single_protocol`` — randomize,
seed, 36 exchange rounds, delivery/selection — on a 447x447 periodic
grid (an odd torus, so the walk is ergodic, built straight from edge
arrays with no networkx step) with binary randomized response over
bernoulli(0.3) values.  The protocols carry reports as ``(origin,
payload)`` arrays indexed by token id, so per-user Python objects do
not scale with ``n``; ROADMAP direction 3a's A_all/A_single targets are
read from these timings.  The asserts check outputs only: exactly ``n``
server reports, an allocation summing to ``n``, and ``A_single``'s
one delivery per user.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import grid_graph
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.protocols import run_all_protocol, run_single_protocol

_SIDE = 447
_NUM_USERS = _SIDE * _SIDE
_ROUNDS = 36


@pytest.fixture(scope="module")
def torus():
    return grid_graph(_SIDE, _SIDE, periodic=True)


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(0)
    return (rng.random(_NUM_USERS) < 0.3).astype(np.int64)


@pytest.mark.parametrize(
    "runner", [run_all_protocol, run_single_protocol], ids=["all", "single"]
)
def test_bench_protocol_at_scale(benchmark, torus, values, runner):
    randomizer = BinaryRandomizedResponse(1.0)

    def protocol():
        return runner(
            torus, _ROUNDS, values=values, randomizer=randomizer, rng=1
        )

    result = benchmark.pedantic(protocol, rounds=3, iterations=1)
    print(
        f"\n{runner.__name__}: {_NUM_USERS:,} users x {_ROUNDS} rounds, "
        f"median {benchmark.stats.stats.median:.2f}s"
    )
    assert result.origins.size == _NUM_USERS
    assert int(result.allocation.sum()) == _NUM_USERS
    if runner is run_single_protocol:
        np.testing.assert_array_equal(
            result.delivered_by, np.arange(_NUM_USERS)
        )
        assert result.dummy_count == int((result.allocation == 0).sum())
