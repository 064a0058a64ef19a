"""The sweep engine: shared graph cache, digests, registration replay,
and kernel-sampler memoization.

These are the contracts ISSUE 5 rebuilt ``repro.sweep`` around:

* each distinct (graph spec, seed) builds exactly once per host, pooled
  or not — asserted via the cache-hit counters;
* ``mode="run"`` points return slim digests unless ``results="full"``;
* runtime registry registrations replay into pool workers, and an
  unpicklable builder fails loudly *only* when the grid uses it;
* the auditor's kernel sampler memoizes per (graph spec, rounds,
  laziness) with bit-identical cached-vs-cold results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.generators import cycle_graph
from repro.graphs.io import load_graph_npz, save_graph_npz
from repro.scenario import (
    GRAPHS,
    GraphSpec,
    MechanismSpec,
    RunDigest,
    Scenario,
    audit,
    clear_graph_cache,
    sweep,
)
from repro.scenario.runner import _bundle_for


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Counter assertions need an empty cache (and no disk tier)."""
    from repro.scenario import GRAPH_CACHE

    clear_graph_cache()
    GRAPH_CACHE.spill_dir = None
    yield
    clear_graph_cache()
    GRAPH_CACHE.spill_dir = None


def _base(**overrides) -> Scenario:
    kwargs = dict(
        graph=GraphSpec.of("k_regular", degree=4, num_nodes=64),
        mechanism=MechanismSpec.of("rr", epsilon=1.0),
        rounds=4,
        seed=3,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# ----------------------------------------------------------------------
# Custom kinds for the replay tests (module-level: picklable by
# reference, importable from pool workers).
# ----------------------------------------------------------------------
def _ring_builder(rng: np.random.Generator, *, num_nodes: int = 7):
    """An odd ring — cheap, ergodic, parameterized."""
    return cycle_graph(num_nodes)


def _ensure_ring_kind() -> None:
    if "sweep_test_ring" not in GRAPHS:
        GRAPHS.register("sweep_test_ring", example={"num_nodes": 7})(
            _ring_builder
        )


class TestGraphCacheSharing:
    def test_sequential_sweep_builds_graph_once(self):
        result = sweep(_base(), axis={"rounds": [1, 2, 3, 4]}, mode="bound")
        assert result.cache_stats.builds == 1
        assert result.cache_stats.memory_hits == 3

    def test_graph_axis_builds_each_distinct_graph_once(self):
        result = sweep(
            _base(),
            axis={"graph.degree": [4, 6], "rounds": [2, 3]},
            mode="bound",
        )
        assert result.cache_stats.builds == 2
        assert result.cache_stats.memory_hits == 2

    def test_pooled_sweep_builds_each_graph_once_per_host(self):
        """The acceptance contract: a pooled graph-axis sweep runs each
        generator exactly once on this host (parent warmup); workers
        are served from inheritance or disk."""
        result = sweep(
            _base(),
            axis={"graph.degree": [4, 6], "rounds": [2, 3]},
            mode="bound",
            workers=2,
        )
        assert result.cache_stats.builds == 2
        assert result.cache_stats.requests >= 6  # 2 warmups + 4 points

    def test_pooled_spawn_workers_load_from_disk(self):
        sequential = sweep(
            _base(), axis={"graph.degree": [4, 6]}, mode="bound"
        )
        clear_graph_cache()
        pooled = sweep(
            _base(),
            axis={"graph.degree": [4, 6]},
            mode="bound",
            workers=2,
            mp_context="spawn",
        )
        assert pooled.epsilons() == sequential.epsilons()
        # Parent built both; spawn workers (fresh processes) loaded the
        # spilled .npz instead of re-running the generator.
        assert pooled.cache_stats.builds == 2
        assert pooled.cache_stats.disk_hits >= 2

    def test_spill_dir_reused_across_sweeps(self, tmp_path):
        first = sweep(
            _base(),
            axis={"graph.degree": [4, 6]},
            mode="bound",
            workers=2,
            spill_dir=str(tmp_path),
        )
        assert first.cache_stats.builds == 2
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".npz", ".npz"]

    def test_persistent_spill_dir_survives_a_fresh_process(self, tmp_path):
        """A second process (simulated: cleared cache, no disk tier
        configured) must load the spilled graphs, not rebuild them."""
        from repro.scenario import GRAPH_CACHE

        sweep(
            _base(),
            axis={"graph.degree": [4, 6]},
            mode="bound",
            workers=2,
            spill_dir=str(tmp_path),
        )
        clear_graph_cache()
        GRAPH_CACHE.spill_dir = None
        again = sweep(
            _base(),
            axis={"graph.degree": [4, 6]},
            mode="bound",
            workers=2,
            spill_dir=str(tmp_path),
        )
        assert again.cache_stats.builds == 0
        assert again.cache_stats.disk_hits >= 2

    def test_sequential_sweep_honors_persistent_spill_dir(self, tmp_path):
        from repro.scenario import GRAPH_CACHE

        first = sweep(
            _base(),
            axis={"graph.degree": [4, 6]},
            mode="bound",
            spill_dir=str(tmp_path),
        )
        assert first.cache_stats.builds == 2
        assert len(list(tmp_path.iterdir())) == 2
        clear_graph_cache()
        GRAPH_CACHE.spill_dir = None
        again = sweep(
            _base(),
            axis={"graph.degree": [4, 6]},
            mode="bound",
            spill_dir=str(tmp_path),
        )
        assert again.cache_stats.builds == 0
        assert again.cache_stats.disk_hits == 2

    def test_pooled_stationary_bound_closed_form_builds_nothing(self):
        result = sweep(
            _base(),
            axis={"graph.num_nodes": [64, 128]},
            mode="stationary_bound",
            workers=2,
        )
        assert result.cache_stats.builds == 0

    def test_pooled_stationary_bound_materializing_kind_builds_once(self):
        """Kinds without a GRAPH_STATS closed form fall back to the
        materialized graph — the one-build-per-host contract must hold
        for them even in stationary_bound mode."""
        base = _base(
            graph=GraphSpec.of(
                "watts_strogatz",
                num_nodes=64,
                nearest_neighbors=4,
                rewire_probability=0.2,
            )
        )
        result = sweep(
            base,
            axis={"graph.num_nodes": [64, 96]},
            mode="stationary_bound",
            workers=2,
            mp_context="spawn",
        )
        assert result.cache_stats.builds == 2
        assert result.cache_stats.disk_hits >= 2

    def test_pooled_stationary_bound_mixes_stats_only_and_fallback_kinds(self):
        """A stats-only kind (gamma: no builder at all) must not be
        materialized just because another grid kind needs the warmup."""
        base = _base(graph=GraphSpec.of("gamma", gamma=1.0, num_nodes=1000))
        axis = {
            "graph": [
                {"kind": "gamma", "params": {"gamma": 1.0, "num_nodes": 1000}},
                {"kind": "watts_strogatz",
                 "params": {"num_nodes": 64, "nearest_neighbors": 4,
                            "rewire_probability": 0.2}},
            ]
        }
        sequential = sweep(base, axis=axis, mode="stationary_bound")
        clear_graph_cache()
        pooled = sweep(
            base, axis=axis, mode="stationary_bound", workers=2
        )
        assert pooled.epsilons() == sequential.epsilons()
        # Only the fallback kind (no closed form) materializes, once.
        assert pooled.cache_stats.builds == 1

    def test_seed_axis_shares_seed_independent_graphs(self):
        """A dataset spec with a pinned wiring seed builds the same
        graph for every scenario seed — the cache must share it."""
        base = _base(graph=GraphSpec.of("complete", num_nodes=64))
        result = sweep(base, axis={"seed": [0, 1, 2]}, mode="bound")
        assert result.cache_stats.builds == 1
        assert result.cache_stats.memory_hits == 2

    def test_seed_axis_rebuilds_seed_consuming_graphs(self):
        """k_regular draws its wiring from the seed stream: replicas
        are different graphs and must NOT be shared."""
        result = sweep(_base(), axis={"seed": [0, 1]}, mode="bound")
        assert result.cache_stats.builds == 2

    def test_seed_axis_rebuilds_churn_schedules(self):
        """The schedule builder consumes the graph stream via child
        SPAWNING (no direct draws) — the probe must catch that channel
        or churn replicas would wrongly alias."""
        from repro.scenario import build_graph

        base = _base(
            graph={
                "kind": "schedule",
                "params": {
                    "base": {"kind": "k_regular",
                             "params": {"degree": 4, "num_nodes": 32}},
                    "phases": 2,
                },
            },
            rounds=4,
        )
        first = build_graph(base)
        second = build_graph(base.updated(seed=base.seed + 1))
        assert first is not second
        assert not np.array_equal(
            first.graph_at(0).indices, second.graph_at(0).indices
        )

    def test_run_mode_pooled_digest_epsilons_match_sequential(self):
        axis = {"rounds": [2, 4]}
        sequential = sweep(_base(), axis=axis, mode="run")
        pooled = sweep(
            _base(), axis=axis, mode="run", workers=2, mp_context="spawn"
        )
        assert pooled.epsilons() == sequential.epsilons()
        assert all(isinstance(p.outcome, RunDigest) for p in pooled)


class TestGraphNpzRoundTrip:
    def test_round_trip_preserves_csr(self, tmp_path):
        graph = _bundle_for(_base()).graph
        path = tmp_path / "graph.npz"
        save_graph_npz(graph, path)
        loaded = load_graph_npz(path)
        assert loaded.num_nodes == graph.num_nodes
        np.testing.assert_array_equal(loaded.indptr, graph.indptr)
        np.testing.assert_array_equal(loaded.indices, graph.indices)

    def test_missing_file_is_loud(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            load_graph_npz(tmp_path / "nope.npz")

    def test_non_graph_npz_is_loud(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, payload=np.arange(3))
        with pytest.raises(ValidationError, match="not a graph cache"):
            load_graph_npz(path)


class TestRegistrationReplay:
    def test_custom_graph_kind_sweeps_under_fork_pool(self):
        """The ROADMAP PR 2 follow-up regression: a runtime-registered
        kind swept under workers=2."""
        _ensure_ring_kind()
        base = _base(graph=GraphSpec.of("sweep_test_ring", num_nodes=7))
        axis = {"graph.num_nodes": [7, 9]}
        sequential = sweep(base, axis=axis, mode="bound")
        pooled = sweep(base, axis=axis, mode="bound", workers=2)
        assert pooled.epsilons() == sequential.epsilons()

    def test_custom_graph_kind_sweeps_under_spawn_pool(self):
        """Spawn workers import the registries fresh — the runtime kind
        only exists for them through the replay payload."""
        _ensure_ring_kind()
        base = _base(graph=GraphSpec.of("sweep_test_ring", num_nodes=7))
        axis = {"graph.num_nodes": [7, 9]}
        sequential = sweep(base, axis=axis, mode="bound")
        pooled = sweep(
            base, axis=axis, mode="bound", workers=2, mp_context="spawn"
        )
        assert pooled.epsilons() == sequential.epsilons()

    def test_unpicklable_builder_in_use_fails_loudly_under_spawn(self):
        if "sweep_test_unpicklable" not in GRAPHS:
            GRAPHS.register("sweep_test_unpicklable", example={})(
                lambda rng, *, num_nodes=7: cycle_graph(num_nodes)
            )
        base = _base(graph=GraphSpec.of("sweep_test_unpicklable"))
        with pytest.raises(ValidationError, match="not picklable"):
            sweep(
                base,
                axis={"rounds": [1, 2]},
                mode="bound",
                workers=2,
                mp_context="spawn",
            )

    def test_unpicklable_builder_still_works_under_fork(self):
        """Fork workers inherit the registries, so closure builders keep
        working there (pre-engine behavior)."""
        if "sweep_test_unpicklable" not in GRAPHS:
            GRAPHS.register("sweep_test_unpicklable", example={})(
                lambda rng, *, num_nodes=7: cycle_graph(num_nodes)
            )
        base = _base(graph=GraphSpec.of("sweep_test_unpicklable"))
        result = sweep(
            base,
            axis={"rounds": [1, 2]},
            mode="bound",
            workers=2,
            mp_context="fork",
        )
        assert len(result) == 2

    def test_unpicklable_stats_builder_ignored_outside_stationary_mode(self):
        """A closure GRAPH_STATS registration for a kind the grid uses
        must only matter when the mode actually consults GRAPH_STATS."""
        from repro.scenario import GRAPH_STATS

        _ensure_ring_kind()
        if "sweep_test_ring" not in GRAPH_STATS:
            GRAPH_STATS.register("sweep_test_ring", example={})(
                lambda *, num_nodes=7: None
            )
        base = _base(graph=GraphSpec.of("sweep_test_ring", num_nodes=7))
        result = sweep(
            base,
            axis={"rounds": [1, 2]},
            mode="bound",
            workers=2,
            mp_context="spawn",
        )
        assert len(result) == 2
        with pytest.raises(ValidationError, match="not picklable"):
            sweep(
                base,
                axis={"rounds": [1, 2]},
                mode="stationary_bound",
                workers=2,
                mp_context="spawn",
            )

    def test_unused_unpicklable_registration_does_not_poison_sweeps(self):
        if "sweep_test_unpicklable" not in GRAPHS:
            GRAPHS.register("sweep_test_unpicklable", example={})(
                lambda rng, *, num_nodes=7: cycle_graph(num_nodes)
            )
        # The grid never references the broken kind -> no error, on any
        # start method.
        result = sweep(
            _base(),
            axis={"rounds": [1, 2]},
            mode="bound",
            workers=2,
            mp_context="spawn",
        )
        assert len(result) == 2

    def test_require_jit_reaches_spawn_workers(self):
        """A spawn pool fails exactly the points a sequential sweep does:
        both under a JIT requirement numba cannot meet, none with it."""
        from repro.netsim.kernels import set_require_jit

        axis = {"seed": [0, 1]}
        previous = set_require_jit(True)
        try:
            sequential = sweep(_base(), axis=axis, mode="run",
                               on_error="collect")
            pooled = sweep(_base(), axis=axis, mode="run", workers=2,
                           mp_context="spawn", on_error="collect")
        finally:
            set_require_jit(previous)
        assert [point.failure for point in pooled.points] == [
            point.failure for point in sequential.points
        ]


class TestKernelSamplerMemo:
    def _audit_scenario(self, rounds=10):
        return Scenario(
            graph=GraphSpec.of("complete", num_nodes=48),
            mechanism=MechanismSpec.of("rr", epsilon=1.0),
            rounds=rounds,
            audit={"kind": "weighted_evidence", "params": {"trials": 60}},
            seed=5,
        )

    def test_repeated_audits_reuse_the_sampler(self):
        scenario = self._audit_scenario()
        first = audit(scenario)
        bundle = _bundle_for(scenario)
        assert (bundle.kernel_builds, bundle.kernel_hits) == (1, 0)
        second = audit(scenario)
        assert (bundle.kernel_builds, bundle.kernel_hits) == (1, 1)
        assert first == second

    def test_cached_audit_bit_identical_to_cold(self):
        """The ROADMAP PR 3 follow-up acceptance: memoized sampler ==
        cold-built sampler, bit for bit."""
        scenario = self._audit_scenario()
        audit(scenario)          # warm the memo
        warm = audit(scenario)   # served from memo
        clear_graph_cache()                       # force a cold rebuild
        cold = audit(scenario)
        assert warm.epsilon_lower_bound == cold.epsilon_lower_bound
        assert warm.best_threshold == cold.best_threshold
        assert warm == cold

    def test_rounds_axis_extends_power_chain_bit_identically(self):
        """An ascending rounds audit seeds M^t from the cached longest
        power; the result must equal a from-scratch build."""
        warm_results = [
            audit(self._audit_scenario(rounds=rounds))
            for rounds in (8, 12, 16)
        ]
        cold_results = []
        for rounds in (8, 12, 16):
            clear_graph_cache()
            cold_results.append(
                audit(self._audit_scenario(rounds=rounds))
            )
        for warm, cold in zip(warm_results, cold_results):
            assert warm == cold

    def test_audit_sweep_over_trials_builds_one_kernel(self):
        scenario = self._audit_scenario()
        result = sweep(
            scenario, axis={"audit.trials": [40, 60, 80]}, mode="audit"
        )
        bundle = _bundle_for(scenario)
        assert len(result) == 3
        assert bundle.kernel_builds == 1
        assert bundle.kernel_hits == 2

    def test_distinct_laziness_builds_distinct_samplers(self):
        scenario = self._audit_scenario()
        audit(scenario)
        audit(scenario.updated(laziness=0.2))
        bundle = _bundle_for(scenario)
        assert bundle.kernel_builds == 2

    def test_laziness_axis_does_not_pin_unbounded_power_chains(self):
        """Each power chain holds a dense (n, n) matrix; evicting a
        sampler must release its laziness's chain too."""
        scenario = self._audit_scenario()
        for laziness in (0.0, 0.1, 0.2, 0.3):
            audit(scenario.updated(laziness=laziness))
        bundle = _bundle_for(scenario)
        assert len(bundle._kernel_powers) <= bundle._KERNEL_SAMPLER_CAP


class TestRunDigest:
    def test_digest_mirrors_full_result_summary(self):
        scenario = _base()
        full = sweep(
            scenario, axis={"rounds": [3]}, mode="run", results="full"
        ).points[0].outcome
        digest = sweep(
            scenario, axis={"rounds": [3]}, mode="run"
        ).points[0].outcome
        assert isinstance(digest, RunDigest)
        assert digest.central_epsilon == full.central_epsilon
        assert digest.empirical_epsilon == full.empirical_epsilon
        assert digest.num_users == full.protocol_result.num_users
        assert digest.dummy_count == full.protocol_result.dummy_count
        meters = full.protocol_result.meters
        assert digest.total_messages_sent == int(meters.total_messages_sent())
        assert digest.max_messages_sent == int(meters.max_messages_sent())
        assert digest.max_peak_items == int(meters.max_peak_items())

    def test_digest_carries_no_per_user_payloads(self):
        digest = sweep(
            _base(), axis={"rounds": [2]}, mode="run"
        ).points[0].outcome
        assert not hasattr(digest, "protocol_result")
        assert not hasattr(digest, "graph")

    def test_digest_summary_is_jsonable(self):
        import json

        digest = sweep(
            _base(), axis={"rounds": [2]}, mode="run"
        ).points[0].outcome
        parsed = json.loads(json.dumps(digest.summary()))
        assert parsed["num_users"] == 64
        assert parsed["central_epsilon"] == digest.central_epsilon
