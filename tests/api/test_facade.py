"""The documented public facade: ``repro.api``.

The facade is the stable surface programmatic callers (and the serving
tier) import from; these tests pin its exports, the one shared
scenario-ingestion path, the payload renderers, and the exception ->
HTTP contract.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.exceptions import (
    AccountingError,
    BipartiteGraphError,
    BudgetExceededError,
    DisconnectedGraphError,
    GraphError,
    InvalidScenarioError,
    JobNotFoundError,
    NotErgodicError,
    ReproError,
    ScheduleRefusedError,
    ValidationError,
    error_payload,
    http_status_for,
)

SCENARIO_DICT = {
    "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "rounds": 4,
    "seed": 3,
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    api.clear_graph_cache()
    yield
    api.clear_graph_cache()


class TestSurface:
    def test_every_advertised_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_operations_are_the_scenario_entry_points(self):
        from repro import scenario

        assert api.run is scenario.run
        assert api.bound is scenario.bound
        assert api.stationary_bound is scenario.stationary_bound
        assert api.audit is scenario.audit
        assert api.sweep is scenario.sweep

    def test_auditor_planning_is_public(self):
        from repro import auditing

        assert api.resolve_method is auditing.resolve_method


class TestParseScenario:
    def test_scenario_passthrough(self):
        scenario = api.parse_scenario(SCENARIO_DICT)
        assert api.parse_scenario(scenario) is scenario

    def test_mapping_and_json_agree(self):
        from_dict = api.parse_scenario(SCENARIO_DICT)
        from_json = api.parse_scenario(from_dict.to_json())
        assert from_json == from_dict

    def test_bad_json_is_invalid_scenario(self):
        with pytest.raises(InvalidScenarioError, match="not valid JSON"):
            api.parse_scenario("{nope")

    def test_bad_keys_are_invalid_scenario(self):
        with pytest.raises(InvalidScenarioError, match="invalid scenario"):
            api.parse_scenario({"graf": {"kind": "k_regular"}})

    def test_wrong_type_is_invalid_scenario(self):
        with pytest.raises(InvalidScenarioError, match="got list"):
            api.parse_scenario([SCENARIO_DICT])


class TestPayloads:
    def test_bound_payload_fields(self):
        payload = api.bound_payload(api.bound(api.parse_scenario(SCENARIO_DICT)))
        assert set(payload) == {
            "epsilon", "delta", "theorem", "epsilon0", "sum_squared", "n",
            "amplification_ratio", "amplified", "accounting",
        }
        assert payload["n"] == 64
        assert payload["epsilon0"] == 1.0
        # Single-graph scenario: no schedule, so no accounting block.
        assert payload["accounting"] is None

    def test_run_payload_is_the_summary(self):
        result = api.run(api.parse_scenario(SCENARIO_DICT))
        assert result.summary() == api.digest_run(result).summary()

    def test_audit_payload_is_the_summary(self):
        result = api.audit(api.parse_scenario(SCENARIO_DICT), trials=200)
        assert list(result.summary()) == [
            "mechanism", "trials", "delta", "epsilon_lower_bound",
            "best_threshold",
        ]


class TestHttpContract:
    @pytest.mark.parametrize(
        "error, status",
        [
            pytest.param(JobNotFoundError("gone"), 404, id="error0-404"),
            pytest.param(ScheduleRefusedError("no stationary distribution"), 422,
                         id="error1-422"),
            pytest.param(InvalidScenarioError("bad body"), 400, id="error2-400"),
            pytest.param(ValidationError("bad arg"), 400, id="error3-400"),
            pytest.param(BudgetExceededError("spent"), 409, id="error4-409"),
            pytest.param(AccountingError("no convergence"), 500, id="error6-500"),
            pytest.param(ReproError("boom"), 500, id="error7-500"),
            pytest.param(RuntimeError("not ours"), 500, id="error8-500"),
            pytest.param(DisconnectedGraphError("two components"), 422,
                         id="error9-422"),
            pytest.param(BipartiteGraphError("two colours"), 422, id="error10-422"),
            pytest.param(NotErgodicError("never mixes"), 422, id="error11-422"),
            pytest.param(GraphError("no connected Watts-Strogatz draw"), 422,
                         id="error12-422"),
        ],
    )
    def test_status_mapping(self, error, status):
        assert http_status_for(error) == status

    @pytest.mark.parametrize("values", [
        pytest.param({"kind": "choice", "params": {
            "num_options": 2, "probabilities": [-0.5, 1.5]}}, id="negative-probability"),
        pytest.param({"kind": "choice", "params": {
            "num_options": 2, "probabilities": [0.5, 0.6]}}, id="probabilities-miss-1"),
        pytest.param({"kind": "normal", "params": {"mean": 0.5, "std": -0.1}}, id="negative-std"),
    ])
    def test_bad_values_params_are_a_400(self, values):
        with pytest.raises(ValidationError, match="must be non-negative") as info:
            api.run(api.parse_scenario({**SCENARIO_DICT, "values": values}))
        assert error_payload(info.value)["status"] == 400

    def test_probabilities_within_choice_tolerance_still_run(self):
        # Generator.choice accepts a sum within sqrt(eps) ~ 1.5e-8 of 1.
        values = {"kind": "choice", "params": {
            "num_options": 2, "probabilities": [0.5, 0.5 + 1e-9]}}
        result = api.run(api.parse_scenario({**SCENARIO_DICT, "values": values}))
        assert set(result.values.tolist()) <= {0, 1}

    def test_error_payload_shape(self):
        payload = error_payload(ScheduleRefusedError("no mixing time"))
        assert payload == {
            "error": "ScheduleRefusedError",
            "status": 422,
            "message": "no mixing time",
        }

    def test_subclasses_win_over_bases(self):
        # InvalidScenarioError and ScheduleRefusedError both derive from
        # ValidationError; the map must answer for the subclass first.
        assert http_status_for(ScheduleRefusedError("x")) != http_status_for(
            ValidationError("x")
        )


class TestSolverFailure:
    def test_bound_raises_accounting_error(self, stalled_lanczos):
        with pytest.raises(AccountingError, match="Lanczos solve failed"):
            api.bound(api.parse_scenario(stalled_lanczos))


class TestRoundsOverride:
    @pytest.mark.parametrize("rounds", [-1, True, 2.5])
    def test_bad_bound_rounds_is_a_validation_error(self, rounds):
        """Validated once where the override is resolved: a typed 400,
        not a raw ``ValueError`` from the spectral bound."""
        with pytest.raises(ValidationError, match="rounds"):
            api.bound(api.parse_scenario(SCENARIO_DICT), rounds=rounds)


def _watts_strogatz_scenario(nearest_neighbors):
    return dict(SCENARIO_DICT, graph={
        "kind": "watts_strogatz",
        "params": {"num_nodes": 10, "nearest_neighbors": nearest_neighbors,
                   "rewire_probability": 0.2},
    })


class TestGeneratorErrors:
    @pytest.mark.parametrize(
        "nearest_neighbors", [1, 11], ids=["edgeless-ring", "above-num-nodes"])
    def test_impossible_watts_strogatz_is_a_typed_400(self, nearest_neighbors):
        scenario = api.parse_scenario(_watts_strogatz_scenario(nearest_neighbors))
        with pytest.raises(ValidationError, match="nearest_neighbors") as info:
            api.run(scenario)
        assert http_status_for(info.value) == 400

    def test_non_ergodic_graph_fails_alike_for_any_rounds(self):
        """A disconnected draw is refused before the simulation with one
        typed 422, whether the rounds are explicit or the mixing time."""
        payloads = []
        for rounds in (4, None):
            for operation in (api.run, api.bound):
                api.clear_graph_cache()
                scenario = api.parse_scenario({
                    "graph": {"kind": "erdos_renyi", "params": {
                        "num_nodes": 64, "edge_probability": 0.01}},
                    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
                    "rounds": rounds,
                    "seed": 3,
                })
                with pytest.raises(NotErgodicError) as info:
                    operation(scenario)
                payloads.append(error_payload(info.value))
        assert payloads[0]["status"] == 422
        assert all(payload == payloads[0] for payload in payloads)

    def test_no_connected_draw_is_a_graph_error(self, monkeypatch):
        from repro.graphs import generators

        monkeypatch.setattr(generators, "is_connected", lambda graph: False)
        with pytest.raises(GraphError, match="no connected Watts-Strogatz"):
            api.run(api.parse_scenario(_watts_strogatz_scenario(4)))


class TestCacheTelemetry:
    def test_cache_stats_counts_builds_and_hits(self):
        # Counters are monotone (a clear changes residency, not
        # history), so assert on deltas.
        before = api.cache_stats()
        scenario = api.parse_scenario(SCENARIO_DICT)
        api.bound(scenario)
        api.bound(scenario)
        stats = api.cache_stats()
        assert stats["builds"] == before["builds"] + 1
        assert stats["memory_hits"] >= before["memory_hits"] + 1
        assert stats["resident"] == 1
        assert stats["requests"] == (
            stats["builds"] + stats["memory_hits"] + stats["disk_hits"]
        )

    def test_sampler_stats_counts_kernel_memoization(self):
        # Counters are monotone, so assert on deltas: two audits of one
        # scenario share one sampler.
        before = api.sampler_stats()
        scenario = api.parse_scenario(SCENARIO_DICT | {"rounds": 8})
        api.audit(scenario, trials=100)
        api.audit(scenario, trials=100)
        stats = api.sampler_stats()
        assert stats["builds"] - before["builds"] == 1
        assert stats["hits"] - before["hits"] >= 1

    def test_sampler_stats_do_not_fall_when_bundles_go(self):
        # Dropping the audited graph's bundle, by LRU eviction or by a
        # clear, changes residency, not the count of builds behind it.
        scenario = api.parse_scenario(SCENARIO_DICT | {"rounds": 10})
        api.audit(scenario, trials=50)
        counted = api.sampler_stats()
        assert counted["builds"] >= 1
        for seed in range(100, 109):  # nine more graphs: LRU of eight
            api.bound(scenario.updated(seed=seed))
        assert api.sampler_stats() == counted
        api.clear_graph_cache()
        assert api.sampler_stats() == counted

    def test_attach_spill_and_spill_graph(self, tmp_path):
        from repro.scenario import GRAPH_CACHE

        directory = api.attach_spill(tmp_path / "tier")
        try:
            assert directory.is_dir()
            scenario = api.parse_scenario(SCENARIO_DICT)
            api.bound(scenario)
            path = api.spill_graph(scenario)
            assert path is not None and path.exists()
            assert path.suffix == ".npz"
        finally:
            GRAPH_CACHE.spill_dir = None

    def test_spill_graph_without_tier_is_a_noop(self):
        assert api.spill_graph(api.parse_scenario(SCENARIO_DICT)) is None
