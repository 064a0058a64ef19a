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

from repro import api
from repro.exceptions import ValidationError
from repro.graphs.dynamic import _TransitionCache
from repro.graphs.generators import cycle_graph, grid_graph
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
from repro.scenario.cache import GraphBundle
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


class TestKernelSamplerMemo:
    def _audit_scenario(self, rounds=10):
        return Scenario(
            graph=GraphSpec.of("complete", num_nodes=48),
            mechanism=MechanismSpec.of("rr", epsilon=1.0),
            rounds=rounds,
            audit={"kind": "weighted_evidence", "params": {"trials": 60}},
            seed=5,
        )

    @staticmethod
    def _sampler_counts_since(before):
        """Sampler (builds, hits) since ``before`` (counters are monotone)."""
        after = api.sampler_stats()
        return after["builds"] - before["builds"], after["hits"] - before["hits"]

    def test_repeated_audits_reuse_the_sampler(self):
        scenario = self._audit_scenario()
        before = api.sampler_stats()
        first = audit(scenario)
        assert self._sampler_counts_since(before) == (1, 0)
        second = audit(scenario)
        assert self._sampler_counts_since(before) == (1, 1)
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
        before = api.sampler_stats()
        result = sweep(
            scenario, axis={"audit.trials": [40, 60, 80]}, mode="audit"
        )
        assert len(result) == 3
        assert self._sampler_counts_since(before) == (1, 2)

    def test_distinct_laziness_builds_distinct_samplers(self):
        scenario = self._audit_scenario()
        before = api.sampler_stats()
        audit(scenario)
        audit(scenario.updated(laziness=0.2))
        assert self._sampler_counts_since(before)[0] == 2

    def test_laziness_axis_does_not_pin_unbounded_power_chains(self):
        """Each kernel profile store holds a dense (n, n) panel; a
        laziness axis must not keep one per value."""
        scenario = self._audit_scenario()
        for laziness in (0.0, 0.1, 0.2, 0.3):
            audit(scenario.updated(laziness=laziness))
        bundle = _bundle_for(scenario)
        assert len(bundle._profile_stores) <= bundle._PROFILE_STORE_CAP

    def test_descending_rounds_evolve_no_more_than_a_cold_build(self, monkeypatch):
        """Below a longer kept evolution the build continues its own
        panels: a rounds-32 sampler after a rounds-64 one on the same
        bundle evolves no more rounds than a cold rounds-32 build, and
        samples the same holders."""
        evolved = []
        at = _TransitionCache.at
        monkeypatch.setattr(
            _TransitionCache, "at",
            lambda self, round_index: evolved.append(round_index) or at(self, round_index),
        )
        torus = grid_graph(25, 40, periodic=True)
        cold = GraphBundle(torus).kernel_sampler(32, 0.0)
        cold_rounds = len(evolved)
        bundle = GraphBundle(torus)
        bundle.kernel_sampler(64, 0.0)
        evolved.clear()
        warm = bundle.kernel_sampler(32, 0.0)
        assert 0 < len(evolved) <= cold_rounds
        np.testing.assert_array_equal(
            warm.sample_tiled(3, np.random.default_rng(0)),
            cold.sample_tiled(3, np.random.default_rng(0)),
        )


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


#: One scenario per walk shape the shared-walk memo must reproduce.
_RR = dict(mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
           values={"kind": "bernoulli", "params": {"rate": 0.3}})
_BA = {"kind": "barabasi_albert", "params": {"num_nodes": 60, "attachment": 3}}
_SHARING_FAMILIES = {
    "rr-bernoulli": dict(graph=_BA, **_RR),
    "privunit-dummies": dict(
        graph=_BA,
        mechanism={"kind": "privunit", "params": {"epsilon": 2.0, "dimension": 8}},
        values={"kind": "bimodal_unit_vectors", "params": {"dimension": 8}},
        dummies={"kind": "privunit_normal", "params": {}},
    ),
    "no-values": dict(graph=_BA, mechanism=_RR["mechanism"]),
    "no-mechanism": dict(graph=_BA, values=_RR["values"], epsilon0=1.0),
    "laziness": dict(graph=_BA, laziness=0.3, **_RR),
    "faults": dict(
        graph=_BA, faults={"kind": "independent", "params": {"probability": 0.2}},
        **_RR,
    ),
    "schedule": dict(graph={"kind": "schedule", "params": {
        "graphs": [
            {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
            {"kind": "k_regular", "params": {"degree": 6, "num_nodes": 64}},
        ],
        "selector": "epoch", "block": 2,
    }}, **_RR),
}


def _payload_key(payloads):
    if payloads is None or payloads.dtype != object:
        return None if payloads is None else (payloads.dtype.str, payloads.tobytes())
    return repr([None if p is None else np.asarray(p).tolist() for p in payloads])


def _run_key(result):
    """Everything a run delivers and accounts, as comparable data."""
    protocol = result.protocol_result
    return (
        protocol.origins.tobytes(),
        _payload_key(protocol.delivered_payloads),
        protocol.allocation.tobytes(),
        np.asarray(protocol.delivered_by).tobytes(),
        protocol.dummy_count,
        int(protocol.meters.total_messages_sent()),
        int(protocol.meters.max_peak_items()),
        None if result.values is None else result.values.tobytes(),
        result.central_epsilon,
        result.empirical_epsilon,
    )


def _digest_key(digest):
    import dataclasses

    return dataclasses.replace(digest, elapsed_seconds=0.0)


class TestSharedWalks:
    """A sequential seed x protocol sweep runs each seed's randomize +
    exchange once and delivers both protocols from it — bit for bit
    what running each point alone gives."""

    @pytest.mark.parametrize("results", ["full", "digest"])
    @pytest.mark.parametrize("order", [["all", "single"], ["single", "all"]])
    @pytest.mark.parametrize("family", sorted(_SHARING_FAMILIES))
    def test_sweep_equals_each_point_run_alone(self, family, order, results):
        from repro import obs
        from repro.scenario import run
        from repro.scenario.runner import digest_run

        base = api.parse_scenario(
            {**_SHARING_FAMILIES[family], "rounds": 5, "seed": 3}
        )
        before = obs.snapshot()
        swept = sweep(
            base, axis={"seed": [3, 4], "protocol": order}, results=results
        )
        counts = obs.since(before)
        assert counts.get("runner.walks_built") == 2
        assert counts.get("runner.walks_shared") == 2
        for point in swept:
            alone = run(point.scenario)
            if results == "full":
                assert _run_key(point.outcome) == _run_key(alone)
            else:
                assert _digest_key(point.outcome) == _digest_key(digest_run(alone))

    def test_counters_show_the_saving(self):
        from repro import obs
        from repro.scenario import run

        before = obs.snapshot()
        sweep(_base(), axis={"seed": [3], "protocol": ["all", "single"]})
        swept = obs.since(before)
        before = obs.snapshot()
        run(_base())
        alone = obs.since(before)
        assert (swept.get("runner.walks_built"), swept.get("runner.walks_shared")) == (1, 1)
        assert (alone.get("runner.walks_built"), alone.get("runner.walks_shared", 0)) == (1, 0)

    def test_other_differences_build_their_own_walk(self):
        from repro import obs

        before = obs.snapshot()
        sweep(_base(), axis={"rounds": [3, 4], "protocol": ["all", "single"]})
        counts = obs.since(before)
        assert counts.get("runner.walks_built") == 2
        assert counts.get("runner.walks_shared") == 2
        before = obs.snapshot()
        sweep(_base(), axis={"protocol": ["all", "single"], "seed": [3, 4]})
        counts = obs.since(before)
        assert counts.get("runner.walks_built") == 4
        assert counts.get("runner.walks_shared", 0) == 0

    def test_shared_arrays_are_read_only(self):
        base = api.parse_scenario({**_SHARING_FAMILIES["rr-bernoulli"], "rounds": 4})
        first, second = sweep(
            base, axis={"protocol": ["all", "single"]}, results="full"
        )
        values, allocation = (
            [point.outcome.values for point in (first, second)],
            [point.outcome.protocol_result.allocation for point in (first, second)],
        )
        for arrays in (values, allocation):
            assert arrays[0] is arrays[1]
            assert not arrays[0].flags.writeable
            with pytest.raises(ValueError):
                arrays[0][0] = 1

    def test_no_walk_outlives_the_sweep(self, monkeypatch):
        import weakref

        from repro.scenario import runner

        refs = []
        build_values = runner.build_values

        def recorded(*args):
            values = build_values(*args)
            refs.append(weakref.ref(values))
            return values

        monkeypatch.setattr(runner, "build_values", recorded)
        base = api.parse_scenario({**_SHARING_FAMILIES["rr-bernoulli"], "rounds": 4})
        sweep(base, axis={"protocol": ["all", "single"]})
        assert len(refs) == 1
        assert refs[0]() is None
