"""Schedule scenarios end to end: spec, run, bound, audit, sweep.

The ``schedule`` graph-spec kind materializes a
:class:`~repro.graphs.dynamic.DynamicGraphSchedule`; this file is the
acceptance oracle that a time-varying workload rides every entry point
of the declarative API — and that the unsound shortcuts (stationarity,
symmetric analysis, default mixing-time rounds, kernel audit engine)
are refused loudly rather than silently mispriced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amplification.network_shuffle import epsilon_all_stationary
from repro.api import sampler_stats
from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.scenario import (
    GRAPHS,
    Scenario,
    audit,
    bound,
    build_graph,
    clear_graph_cache,
    profile_policy,
    run,
    stationary_bound,
    sweep,
)
from repro.testing.oracle import collision_profile_on_schedule

_SUB_SPECS = [
    {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
    {"kind": "k_regular", "params": {"degree": 6, "num_nodes": 64}},
]


def _schedule_scenario(**overrides) -> Scenario:
    payload = dict(
        graph={"kind": "schedule", "params": {"graphs": _SUB_SPECS}},
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        values={"kind": "bernoulli", "params": {"rate": 0.4}},
        rounds=6,
        seed=3,
    )
    payload.update(overrides)
    return Scenario(**payload)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


class TestScheduleSpec:
    def test_json_round_trip(self):
        scenario = _schedule_scenario()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_epoch_selector_round_trips_and_builds(self):
        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {"graphs": _SUB_SPECS, "selector": "epoch", "block": 3},
            }
        )
        assert Scenario.from_json(scenario.to_json()) == scenario
        schedule = build_graph(scenario)
        assert schedule.graph_at(0) is schedule.graph_at(2)
        assert schedule.graph_at(3) is not schedule.graph_at(2)
        assert schedule.graph_at(6) is schedule.graph_at(0)

    def test_round_robin_is_default(self):
        schedule = build_graph(_schedule_scenario())
        assert isinstance(schedule, DynamicGraphSchedule)
        assert schedule.graph_at(0) is schedule.graph_at(2)
        assert schedule.graph_at(0) is not schedule.graph_at(1)

    def test_churn_builds_distinct_phases(self):
        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {
                    "base": {
                        "kind": "k_regular",
                        "params": {"degree": 4, "num_nodes": 64},
                    },
                    "phases": 3,
                },
            }
        )
        schedule = build_graph(scenario)
        assert schedule.num_graphs == 3
        edge_sets = {
            tuple(schedule.graph_at(i).indices.tolist()) for i in range(3)
        }
        assert len(edge_sets) == 3  # seeded re-draws: real churn

    def test_churn_is_seed_deterministic(self):
        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {
                    "base": {
                        "kind": "k_regular",
                        "params": {"degree": 4, "num_nodes": 64},
                    },
                    "phases": 2,
                },
            }
        )
        first = build_graph(scenario)
        clear_graph_cache()
        second = build_graph(scenario)
        for index in range(2):
            np.testing.assert_array_equal(
                first.graph_at(index).indices, second.graph_at(index).indices
            )

    def test_sweepable_dotted_params(self):
        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {"graphs": _SUB_SPECS, "selector": "epoch", "block": 1},
            }
        )
        updated = scenario.updated(**{"graph.block": 4})
        assert updated.graph.params["block"] == 4

    @pytest.mark.parametrize(
        "params, match",
        [
            ({}, "either 'graphs'"),
            ({"graphs": _SUB_SPECS, "base": _SUB_SPECS[0], "phases": 2},
             "either 'graphs'"),
            ({"graphs": []}, "non-empty"),
            ({"graphs": _SUB_SPECS, "selector": "lunar"}, "selector"),
            ({"graphs": [{"kind": "schedule",
                          "params": {"graphs": _SUB_SPECS}}]}, "nest"),
            ({"base": _SUB_SPECS[0], "phases": 0}, "phases"),
            ({"graphs": _SUB_SPECS, "block": 0}, "block"),
            # Contradictory knobs fail loudly instead of being ignored.
            ({"graphs": _SUB_SPECS, "phases": 2}, "phases"),
            ({"graphs": _SUB_SPECS, "selector": "round_robin", "block": 4},
             "block"),
        ],
    )
    def test_builder_validation(self, params, match):
        with pytest.raises(ValidationError, match=match):
            GRAPHS.build("schedule", np.random.default_rng(0), **params)

    def test_mismatched_sub_graph_sizes_rejected(self):
        with pytest.raises(ValidationError, match="node count"):
            GRAPHS.build(
                "schedule",
                np.random.default_rng(0),
                graphs=[
                    {"kind": "complete", "params": {"num_nodes": 8}},
                    {"kind": "complete", "params": {"num_nodes": 9}},
                ],
            )


class TestScheduleRun:
    def test_runs_end_to_end_with_accounting(self):
        result = run(_schedule_scenario())
        assert result.rounds == 6
        assert result.central_epsilon is not None
        assert result.empirical_epsilon is not None
        assert len(result.payloads()) == 64

    def test_engines_bit_identical_on_schedules(self, on_oracle):
        """The engine and the per-message oracle agree on a schedule."""
        fast = run(_schedule_scenario())
        for engine in ("faithful", "compiled"):
            with on_oracle(engine == "faithful"):
                other = run(_schedule_scenario(engine=engine))
            np.testing.assert_array_equal(
                fast.protocol_result.allocation,
                other.protocol_result.allocation,
            )
            assert [
                r.origin for r in fast.protocol_result.server_reports
            ] == [r.origin for r in other.protocol_result.server_reports]
            assert fast.central_epsilon == other.central_epsilon

    def test_single_protocol_runs_on_schedule(self):
        result = run(_schedule_scenario(protocol="single"))
        assert result.protocol_result.protocol == "single"
        assert len(result.protocol_result.server_reports) == 64

    def test_laziness_supported(self):
        result = run(_schedule_scenario(laziness=0.3))
        assert result.central_epsilon is not None

    def test_rounds_required(self):
        with pytest.raises(ValidationError, match="mixing time"):
            run(_schedule_scenario(rounds=None))


class TestScheduleBound:
    def test_bound_uses_exact_worst_user_collision(self):
        scenario = _schedule_scenario()
        schedule = build_graph(scenario)
        collision = float(collision_profile_on_schedule(schedule, 6).max())
        expected = epsilon_all_stationary(
            1.0, 64, collision, scenario.delta, scenario.delta2
        )
        assert bound(scenario).epsilon == expected.epsilon

    def test_incremental_rounds_cache_is_exact(self):
        """An ascending-rounds sweep (cached incremental profile) must
        equal a cold evaluation at the final round count."""
        scenario = _schedule_scenario()
        bound(scenario, rounds=3)
        warm = bound(scenario, rounds=9)
        clear_graph_cache()
        cold = bound(scenario, rounds=9)
        assert warm.epsilon == cold.epsilon

    def test_descending_rounds_do_not_corrupt_cache(self):
        scenario = _schedule_scenario()
        bound(scenario, rounds=8)
        shorter = bound(scenario, rounds=2)
        clear_graph_cache()
        cold = bound(scenario, rounds=2)
        assert shorter.epsilon == cold.epsilon

    def test_schedule_of_one_never_beats_spectral_bound(self):
        """Exact collision <= the Equation 7 spectral *bound*, so the
        schedule epsilon is at most the static one."""
        sub = {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}}
        dynamic = bound(_schedule_scenario(
            graph={"kind": "schedule", "params": {"graphs": [sub]}}
        ))
        static = bound(_schedule_scenario(graph=sub))
        assert dynamic.epsilon <= static.epsilon + 1e-12

    def test_stationary_bound_refused(self):
        with pytest.raises(ValidationError, match="stationarity|stationary"):
            stationary_bound(_schedule_scenario())

    def test_symmetric_analysis_refused(self):
        with pytest.raises(ValidationError, match="symmetric"):
            bound(_schedule_scenario(analysis="symmetric"))

    def test_oversized_schedule_escalates_to_blocked(self):
        """The old 4096-node cap is gone: a schedule whose dense
        profile exceeds the memory budget silently escalates to
        blocked/spilled accounting and still prices exactly."""
        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {
                    "graphs": [
                        {"kind": "k_regular",
                         "params": {"degree": 4, "num_nodes": 5000}},
                    ]
                },
            },
            rounds=2,
        )
        with profile_policy(memory_budget=2 * 1024 * 1024):
            result = bound(scenario)
        assert result.accounting["strategy"] == "blocked"
        assert result.accounting["exact"] is True
        assert result.epsilon > 0.0


class TestScheduleAudit:
    def test_audit_runs_on_schedule(self):
        result = audit(_schedule_scenario(), trials=200)
        assert result.trials == 200
        assert result.epsilon_lower_bound >= 0.0

    def test_kernel_method_refused(self):
        """A schedule has no single t-step kernel: even at a mixed round
        count its audit step-simulates and memoizes no sampler."""
        before = sampler_stats()
        result = audit(_schedule_scenario(rounds=12), trials=200)
        assert result.epsilon_lower_bound >= 0.0
        assert sampler_stats() == before

    def test_loop_method_rejected(self):
        """The per-trial loop is a test oracle, not an engine, and no
        caller option selects an engine."""
        with pytest.raises(TypeError, match="method"):
            audit(_schedule_scenario(), trials=50, method="loop")

    def test_topk_statistic_on_schedule(self):
        scenario = _schedule_scenario(
            audit={"kind": "topk_evidence", "params": {"top_k": 4}}
        )
        result = audit(scenario, trials=200)
        assert result.epsilon_lower_bound >= 0.0

    def test_amplification_visible_at_t0_vs_mixed(self):
        """The schedule audit reproduces the paper's headline shape:
        raw RR at t=0, collapsed loss after mixing rounds."""
        scenario = _schedule_scenario(
            mechanism={"kind": "rr", "params": {"epsilon": 3.0}}
        )
        raw = audit(scenario, trials=400, rounds=0)
        mixed = audit(scenario, trials=400, rounds=12)
        assert raw.epsilon_lower_bound > 1.0
        assert mixed.epsilon_lower_bound < raw.epsilon_lower_bound


class TestScheduleSweep:
    def test_bound_sweep_over_rounds(self):
        result = sweep(
            _schedule_scenario(), axis={"rounds": [2, 4, 8]}, mode="bound"
        )
        epsilons = result.epsilons()
        assert len(epsilons) == 3
        # More scheduled mixing never hurts on these ergodic phases.
        assert epsilons[0] >= epsilons[-1]

    def test_run_sweep_over_schedule_block(self):
        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {"graphs": _SUB_SPECS, "selector": "epoch", "block": 1},
            }
        )
        result = sweep(scenario, axis={"graph.block": [1, 3]}, mode="run")
        assert len(result) == 2
        assert all(point.epsilon is not None for point in result)

    def test_audit_sweep_on_schedule(self):
        scenario = _schedule_scenario(
            audit={"kind": "weighted_evidence",
                   "params": {"trials": 100}}
        )
        result = sweep(scenario, axis={"rounds": [1, 4]}, mode="audit")
        assert len(result) == 2

    def test_built_schedule_is_picklable(self):
        """Pooled sweeps pickle RunResults (which carry the schedule)
        back from workers — the epoch selector must not be a lambda."""
        import pickle

        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {"graphs": _SUB_SPECS, "selector": "epoch", "block": 3},
            }
        )
        schedule = build_graph(scenario)
        clone = pickle.loads(pickle.dumps(schedule))
        for round_index in range(7):
            assert (
                clone.graph_at(round_index).num_edges
                == schedule.graph_at(round_index).num_edges
            )
        result = pickle.loads(pickle.dumps(run(scenario)))
        assert result.central_epsilon is not None

    def test_pooled_run_sweep_on_epoch_schedule(self):
        """The workers>=2 path that crashed pre-fix: RunResults carrying
        an epoch schedule must round-trip through the process pool."""
        scenario = _schedule_scenario(
            graph={
                "kind": "schedule",
                "params": {"graphs": _SUB_SPECS, "selector": "epoch", "block": 2},
            }
        )
        result = sweep(
            scenario, axis={"rounds": [2, 4]}, mode="run", workers=2
        )
        assert len(result) == 2
        assert all(point.epsilon is not None for point in result)
