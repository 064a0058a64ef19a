"""Out-of-core schedule accounting at scale (the PR 9 tentpole claim).

The old dense profile needed ``16 * n^2`` bytes — 160 GB at ``n = 10^5``
— and simply refused schedules past 4096 nodes.  The blocked engine must
price a 100k-node churn schedule *exactly* inside a fixed laptop-class
budget: the memory high-water is one ``(n, B)`` panel plus the
per-topology transition CSRs, regardless of ``n``.

The bench asserts the two halves of the claim separately: bounded peak
allocation (tracemalloc, via the ``memory_watch`` fixture) and a sound,
finite guarantee out the other end.  The pytest-benchmark figures track
the store-backed warm path — resuming every block from its spilled
``.npz`` instead of re-evolving it — which is what ascending-``rounds``
sweeps pay per point, and the one-block range: a 2000-node profile that
fits the default budget and so stays one panel in memory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import (
    bound,
    clear_graph_cache,
    parse_scenario,
    profile_policy,
    profile_stats,
)
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import random_regular_graph
from repro.scenario.profile import ProfileStore

_NUM_NODES = 100_000
_DEGREE = 8
_ROUNDS = 2
#: The accounting budget under test: half the laptop-class default.
_PROFILE_BUDGET = 256 * 1024 * 1024
#: Ceiling for the *observed* allocation high-water.  The budget governs
#: the panel; graph construction and the two 800k-edge transition CSRs
#: ride on top, so the assertion leaves headroom while still sitting
#: orders of magnitude under the 160 GB a dense profile would need.
_PEAK_CEILING = 768 * 1024 * 1024
#: Generous wall-clock ceiling for slow CI runners; ~40 s locally.
_TIME_BUDGET_SECONDS = 300.0


def _churn_scenario():
    return parse_scenario({
        "graph": {"kind": "schedule", "params": {
            "base": {
                "kind": "k_regular",
                "params": {"degree": _DEGREE, "num_nodes": _NUM_NODES},
            },
            "phases": 2,
        }},
        "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
        "rounds": _ROUNDS,
        "seed": 0,
    })


def _counted_since(before):
    """Profile counters' growth since ``before`` (they never reset)."""
    after = profile_stats()
    return {name: after[name] - before[name] for name in after}


@pytest.fixture(autouse=True)
def _fresh():
    clear_graph_cache()
    yield
    clear_graph_cache()


def test_100k_node_churn_bound_within_memory_budget(memory_watch):
    scenario = _churn_scenario()
    before = profile_stats()
    started = time.perf_counter()
    with memory_watch() as watch:
        with profile_policy(memory_budget=_PROFILE_BUDGET):
            result = bound(scenario)
    elapsed = time.perf_counter() - started
    accounting = result.accounting
    print(
        f"\n{_NUM_NODES:,}-node churn x {_ROUNDS} rounds: {elapsed:.1f}s, "
        f"peak {watch.peak_mib:.0f} MiB, strategy {accounting['strategy']} "
        f"(B={accounting['block_size']}, {accounting['blocks']} blocks), "
        f"eps={result.epsilon:.3f}"
    )

    assert elapsed < _TIME_BUDGET_SECONDS
    assert watch.peak_bytes < _PEAK_CEILING
    # The budget forced several blocks — one would need ~160 GB.
    assert accounting["strategy"] == "blocked"
    assert accounting["blocks"] > 1
    # And the result is still the exact accounting, not an approximation.
    assert accounting["exact"] is True
    assert accounting["truncation_bound"] == 0.0
    assert np.isfinite(result.epsilon) and result.epsilon > 0
    stats = _counted_since(before)
    assert stats["blocked_profiles"] == 1
    assert stats["blocks_evolved"] == accounting["blocks"]


_RESUME_NODES = 5_000
_RESUME_BLOCK = 256
_RESUME_STEPS = 4


@pytest.fixture(scope="module")
def spilled_store_directory(tmp_path_factory):
    """A fully-spilled block store for a 5k-node churn schedule."""
    directory = tmp_path_factory.mktemp("profile-blocks")
    schedule = DynamicGraphSchedule([
        random_regular_graph(_DEGREE, _RESUME_NODES, rng=0),
        random_regular_graph(_DEGREE, _RESUME_NODES, rng=1),
    ])
    store = ProfileStore(
        schedule,
        identity="bench-resume",
        block_size=_RESUME_BLOCK,
        directory=directory,
    )
    cold, _ = store.collisions(_RESUME_STEPS)
    return schedule, directory, cold


def test_warm_resume_reuses_every_block(spilled_store_directory):
    schedule, directory, cold = spilled_store_directory
    before = profile_stats()
    store = ProfileStore(
        schedule,
        identity="bench-resume",
        block_size=_RESUME_BLOCK,
        directory=directory,
    )
    warm, _ = store.collisions(_RESUME_STEPS)
    stats = _counted_since(before)
    assert stats["blocks_resumed"] == store.num_blocks
    assert stats["blocks_evolved"] == 0
    np.testing.assert_array_equal(warm, cold)


def test_bench_profile_store_warm_resume(benchmark, spilled_store_directory):
    """pytest-benchmark figure: full-store resume from spilled blocks.

    Each iteration builds a fresh store (no in-memory memo) so the
    measurement is the disk path — read every block's ``.npz``, reduce
    to collision mass — the steady-state cost an ascending-rounds sweep
    pays per point.
    """
    schedule, directory, _ = spilled_store_directory

    def warm_resume():
        store = ProfileStore(
            schedule,
            identity="bench-resume",
            block_size=_RESUME_BLOCK,
            directory=directory,
        )
        return store.collisions(_RESUME_STEPS)

    collisions, _ = benchmark(warm_resume)
    assert collisions.shape == (_RESUME_NODES,)


_ONE_BLOCK_NODES = 2_000
_ONE_BLOCK_SWEEP = (2, 4, 8, 12, 16)


def _one_block_scenario(rounds: int):
    return parse_scenario({
        "graph": {"kind": "schedule", "params": {
            "base": {
                "kind": "k_regular",
                "params": {"degree": _DEGREE, "num_nodes": _ONE_BLOCK_NODES},
            },
            "phases": 3,
        }},
        "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
        "rounds": rounds,
        "seed": 0,
    })


@pytest.mark.parametrize("rounds", [4, 8])
def test_bench_one_block_bound(benchmark, rounds):
    """pytest-benchmark figure: a cold ``bound`` whose profile is one block.

    Every round starts from an empty graph cache, so the figure is the
    single-shot cost a CLI user pays: schedule build plus one in-memory
    panel evolved ``rounds`` steps.
    """
    scenario = _one_block_scenario(rounds)
    result = benchmark.pedantic(
        bound, args=(scenario,), setup=clear_graph_cache,
        rounds=5, iterations=1,
    )
    accounting = result.accounting
    assert accounting["strategy"] == "dense"
    assert accounting["blocks"] == 1
    assert accounting["block_size"] == _ONE_BLOCK_NODES
    assert np.isfinite(result.epsilon) and result.epsilon > 0


def test_bench_one_block_ascending_sweep(benchmark):
    """pytest-benchmark figure: an ascending-``rounds`` sweep on one block.

    The in-memory panel is continued from the previous point instead of
    restarted, so the sweep costs one 16-round evolution, not the sum.
    """
    scenarios = [_one_block_scenario(rounds) for rounds in _ONE_BLOCK_SWEEP]

    def ascending_sweep():
        return [bound(scenario) for scenario in scenarios]

    results = benchmark.pedantic(
        ascending_sweep, setup=clear_graph_cache, rounds=3, iterations=1,
    )
    assert [r.accounting["steps"] for r in results] == list(_ONE_BLOCK_SWEEP)
    clear_graph_cache()
    cold = bound(scenarios[-1])
    assert results[-1].sum_squared == cold.sum_squared
