"""Thread-safety of the process-wide graph cache.

The serving tier answers simultaneous bound queries from one hot
:data:`~repro.scenario.cache.GRAPH_CACHE`; the single-flight contract is
that concurrent requests for the same (graph spec, seed) run the
generator exactly once — the first caller builds, the rest wait on the
pending slot and count as memory hits.
"""

from __future__ import annotations

import threading

import pytest

from repro import api, obs
from repro.scenario import clear_graph_cache
from repro.scenario.cache import GraphCache
from repro.graphs.generators import cycle_graph

SCENARIO = {
    "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 256}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "rounds": 4,
    "seed": 21,
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def _run_threads(workers, target):
    barrier = threading.Barrier(workers)
    errors = []

    def body():
        barrier.wait()
        try:
            target()
        except BaseException as error:  # noqa: BLE001 — collected
            errors.append(error)

    threads = [threading.Thread(target=body) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return errors


class TestSingleFlight:
    def test_simultaneous_bounds_build_once(self):
        # The satellite acceptance test: two simultaneous bound requests
        # for the same (graph spec, seed) report exactly one build.
        before = api.cache_stats()
        scenario = api.parse_scenario(SCENARIO)
        errors = _run_threads(2, lambda: api.bound(scenario))
        assert not errors
        stats = api.cache_stats()
        assert stats["builds"] - before["builds"] == 1
        assert stats["memory_hits"] - before["memory_hits"] == 1

    def test_many_threads_still_one_build(self):
        before = api.cache_stats()
        scenario = api.parse_scenario(SCENARIO)
        errors = _run_threads(8, lambda: api.bound(scenario))
        assert not errors
        stats = api.cache_stats()
        assert stats["builds"] - before["builds"] == 1
        assert stats["memory_hits"] - before["memory_hits"] == 7

    def test_waiters_share_the_identical_bundle(self):
        before = obs.snapshot()
        cache = GraphCache()
        built = []
        bundles = []
        gate = threading.Event()

        def builder():
            built.append(1)
            gate.wait(timeout=30)  # hold the build so others queue up
            return cycle_graph(7), False

        def request():
            bundles.append(cache.bundle("k", builder))

        barrier = threading.Barrier(4 + 1)

        def body():
            barrier.wait()
            request()

        threads = [threading.Thread(target=body) for _ in range(4)]
        for thread in threads:
            thread.start()
        barrier.wait()     # all four are past the gate...
        gate.set()         # ...now let the single owner finish
        for thread in threads:
            thread.join(timeout=60)
        assert len(built) == 1
        assert len(bundles) == 4
        assert all(bundle is bundles[0] for bundle in bundles)
        assert obs.since(before) == {
            "graph_cache.builds": 1, "graph_cache.memory_hits": 3,
        }

    def test_build_failure_propagates_to_waiters_then_clears(self):
        cache = GraphCache()
        attempts = []

        def failing_builder():
            attempts.append(1)
            raise RuntimeError("generator exploded")

        errors = _run_threads(
            4, lambda: cache.bundle("k", failing_builder)
        )
        assert len(errors) == 4
        assert all("generator exploded" in str(error) for error in errors)
        # The failed pending slot is gone: a later request retries the
        # builder instead of replaying the stale error.
        with pytest.raises(RuntimeError):
            cache.bundle("k", failing_builder)
        assert len(attempts) >= 2

    def test_distinct_keys_build_independently(self):
        before = obs.snapshot()
        cache = GraphCache()

        def builder():
            return cycle_graph(5), False

        errors = _run_threads(
            4,
            lambda: [cache.bundle(f"k{i}", builder) for i in range(4)],
        )
        assert not errors
        assert obs.since(before)["graph_cache.builds"] == 4
        assert len(cache) == 4


class TestDerivativeLocking:
    def test_concurrent_spectral_summary_is_consistent(self):
        # Derivative memos (spectral summary, kernel samplers) are
        # computed under the bundle's lock; all threads must see one
        # object.
        scenario = api.parse_scenario(SCENARIO)
        api.bound(scenario)  # materialize the bundle
        results = []
        errors = _run_threads(
            4, lambda: results.append(api.stationary_bound(scenario))
        )
        assert not errors
        assert len({round(r.epsilon, 12) for r in results}) == 1

    def test_kernel_stats_counts_resident_bundles_once(self):
        # One audit, one sampler build, however many keys its bundle is
        # resident under.
        before = api.sampler_stats()
        scenario = api.parse_scenario(SCENARIO | {"rounds": 8})
        api.audit(scenario, trials=50)
        assert api.sampler_stats()["builds"] - before["builds"] == 1
