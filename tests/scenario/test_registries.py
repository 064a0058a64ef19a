"""Registry behavior: examples build, unknown keys fail loudly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel
from repro.scenario.cache import seed_streams
from repro.scenario import (
    FAULTS,
    GRAPH_STATS,
    GRAPHS,
    MECHANISMS,
    VALUES,
    GraphSpec,
    Registry,
    Scenario,
    run,
    stationary_bound,
)


class TestUnknownKeys:
    def test_unknown_graph_kind_lists_known(self):
        with pytest.raises(ValidationError, match="unknown graph kind 'moebius'"):
            GRAPHS.build("moebius", np.random.default_rng(0))

    def test_error_names_known_keys(self):
        with pytest.raises(ValidationError, match="k_regular"):
            GRAPHS.build("moebius", np.random.default_rng(0))

    def test_unknown_mechanism_at_run_time(self):
        scenario = Scenario(graph="complete", mechanism="quantum_rr")
        scenario = scenario.updated(**{"graph.num_nodes": 16})
        with pytest.raises(ValidationError, match="unknown mechanism kind"):
            run(scenario)

    def test_unknown_graph_at_run_time(self):
        scenario = Scenario(graph="moebius", epsilon0=1.0)
        with pytest.raises(ValidationError, match="unknown graph kind"):
            run(scenario)

    def test_bad_params_mention_component(self):
        with pytest.raises(ValidationError, match="bad parameters for graph"):
            GRAPHS.build("complete", np.random.default_rng(0), sides=3)

    def test_whitespace_docstring_tolerated(self):
        registry = Registry("demo")

        @registry.register("blank")
        def _blank():
            """   """

        assert registry.get("blank").doc == ""

    def test_duplicate_registration_rejected(self):
        registry = Registry("demo")

        @registry.register("thing")
        def _build():
            return 1

        with pytest.raises(ValidationError, match="already has"):
            @registry.register("thing")
            def _again():
                return 2


#: A mechanism (and dummies) that randomizes each values kind's example.
_VALUES_LOADS = {
    "zeros": {"mechanism": {"kind": "rr", "params": {"epsilon": 1.0}}},
    "constant": {"mechanism": {"kind": "rr", "params": {"epsilon": 1.0}}},
    "bernoulli": {"mechanism": {"kind": "rr", "params": {"epsilon": 1.0}}},
    "choice": {"mechanism": {"kind": "unary", "params": {"epsilon": 1.0, "num_symbols": 5}}},
    "normal": {"mechanism": {"kind": "laplace", "params": {"epsilon": 1.0}}},
    "bimodal_unit_vectors": {
        "mechanism": {"kind": "privunit", "params": {"epsilon": 2.0, "dimension": 8}},
        "dummies": {"kind": "privunit_normal", "params": {}},
    },
}


class TestExamplesBuild:
    @pytest.mark.parametrize("kind", GRAPHS.available())
    def test_every_graph_example_builds(self, kind):
        graph = GRAPHS.build(kind, np.random.default_rng(0), **GRAPHS.example(kind))
        # The "schedule" kind materializes to a DynamicGraphSchedule;
        # everything else to a static Graph.
        assert isinstance(graph, (Graph, DynamicGraphSchedule))
        assert graph.num_nodes > 0

    @pytest.mark.parametrize("kind", MECHANISMS.available())
    def test_every_mechanism_example_builds(self, kind):
        mechanism = MECHANISMS.build(kind, **MECHANISMS.example(kind))
        assert isinstance(mechanism, LocalRandomizer)
        assert mechanism.epsilon > 0

    @pytest.mark.parametrize("kind", FAULTS.available())
    def test_every_fault_example_builds(self, kind):
        faults = FAULTS.build(kind, **FAULTS.example(kind))
        assert isinstance(faults, DropoutModel)
        mask = faults.offline_mask(10, 0, np.random.default_rng(0))
        assert mask.shape == (10,)

    @pytest.mark.parametrize("kind", VALUES.available())
    def test_every_values_example_builds(self, kind):
        """One array whose first axis is n; an A_single run through a
        mechanism leaves it as built, and ``payloads()`` reads Python
        scalars from 1-D payloads and ndarray rows from 2-D ones."""
        params = VALUES.example(kind)
        values = VALUES.build(kind, np.random.default_rng(0), 20, **params)
        assert isinstance(values, np.ndarray) and values.shape[0] == 20

        result = run(Scenario(
            graph=GraphSpec.of("complete", num_nodes=20), protocol="single",
            rounds=2, seed=1, values={"kind": kind, "params": params},
            **_VALUES_LOADS.get(kind, {"epsilon0": 1.0}),
        ))
        fresh = VALUES.build(kind, seed_streams(1).values, 20, **params)
        np.testing.assert_array_equal(result.values, fresh)
        delivered = result.protocol_result.delivered_payloads
        assert result.protocol_result.dummy_count > 0
        for payload in result.payloads():
            if delivered.ndim == 1:
                assert not isinstance(payload, (np.ndarray, np.generic))
            else:
                assert isinstance(payload, np.ndarray)
                assert payload.shape == delivered.shape[1:]


def test_choice_refuses_nan_probabilities():
    # A scenario refuses non-finite params before any builder runs, so
    # only a direct build can hand the builder a NaN.
    with pytest.raises(ValidationError, match="must be non-negative"):
        VALUES.build(
            "choice", np.random.default_rng(0), 4,
            num_options=2, probabilities=[float("nan"), 1.0],
        )


class TestGraphStats:
    def test_k_regular_collision_is_uniform(self):
        stats = GRAPH_STATS.build("k_regular", degree=8, num_nodes=1000)
        assert stats.num_nodes == 1000
        assert stats.stationary_collision == pytest.approx(1e-3)
        assert stats.gamma == pytest.approx(1.0)

    def test_dataset_stats_use_published_gamma(self):
        stats = GRAPH_STATS.build("dataset", name="twitch")
        assert stats.num_nodes == 9_498
        assert stats.gamma == pytest.approx(7.5840)

    def test_stationary_bound_matches_materialized_collision(self):
        """Closed form == materialized stationary collision (complete graph)."""
        scenario = Scenario(
            graph=GraphSpec.of("complete", num_nodes=32), epsilon0=1.0
        )
        from repro.scenario import bound

        closed = stationary_bound(scenario)
        materialized = bound(scenario, rounds=10_000)
        assert closed.epsilon == pytest.approx(materialized.epsilon, rel=1e-9)

    def test_grid_stats_match_materialized_torus(self):
        """The torus closed form equals the built graph's stationary
        collision (uniform pi on the 4-regular torus)."""
        from repro.graphs.generators import grid_graph
        from repro.graphs.spectral import stationary_distribution

        for rows, cols in [(5, 5), (5, 6)]:
            stats = GRAPH_STATS.build("grid", rows=rows, cols=cols, periodic=True)
            pi = stationary_distribution(grid_graph(rows, cols, periodic=True))
            assert stats.stationary_collision == pytest.approx(
                float(np.dot(pi, pi)), rel=1e-12
            ), (rows, cols)
            assert stats.num_nodes == rows * cols

    def test_stats_refuse_non_ergodic_configurations(self):
        """Closed forms exist only where the walk actually converges —
        the same Theorem 4.3 precondition the materialized paths check."""
        with pytest.raises(ValidationError, match="bipartite|ergodic"):
            GRAPH_STATS.build("grid", rows=4, cols=6, periodic=False)
        with pytest.raises(ValidationError, match="bipartite|ergodic"):
            GRAPH_STATS.build("grid", rows=4, cols=6, periodic=True)
        with pytest.raises(ValidationError, match="ergodic"):
            GRAPH_STATS.build("cycle", num_nodes=10)
        with pytest.raises(ValidationError, match="ergodic"):
            GRAPH_STATS.build("complete", num_nodes=2)
        with pytest.raises(ValidationError, match="ergodic"):
            GRAPH_STATS.build("k_regular", degree=2, num_nodes=10)
        assert "star" not in GRAPH_STATS  # always bipartite

    def test_stationary_bound_refuses_bipartite_closed_form(self):
        """The closed-form branch must not price what bound() refuses."""
        scenario = Scenario(
            graph=GraphSpec.of("grid", rows=4, cols=4, periodic=False),
            epsilon0=1.0,
        )
        with pytest.raises(ValidationError, match="bipartite|ergodic"):
            stationary_bound(scenario)

    def test_stationary_bound_falls_back_to_materializing(self):
        scenario = Scenario(
            graph=GraphSpec.of("erdos_renyi", num_nodes=64, edge_probability=0.3),
            epsilon0=1.0,
            seed=5,
        )
        assert stationary_bound(scenario).epsilon > 0


class TestSignatureBinding:
    """build() binds the signature first: only genuinely bad parameters
    are rewrapped; builder-internal TypeErrors stay loud."""

    def test_builder_internal_type_error_not_swallowed(self):
        registry = Registry("demo")

        @registry.register("buggy")
        def _buggy(*, size: int):
            return None + size  # a genuine builder bug

        with pytest.raises(TypeError, match="unsupported operand"):
            registry.build("buggy", size=3)

    def test_bad_parameters_still_wrapped(self):
        registry = Registry("demo")

        @registry.register("strict")
        def _strict(*, size: int):
            return size

        with pytest.raises(ValidationError, match="bad parameters for demo"):
            registry.build("strict", wrong_name=3)

    def test_missing_required_parameter_wrapped(self):
        registry = Registry("demo")

        @registry.register("needs")
        def _needs(*, size: int):
            return size

        with pytest.raises(ValidationError, match="bad parameters"):
            registry.build("needs")

    def test_valid_build_unaffected(self):
        registry = Registry("demo")

        @registry.register("ok")
        def _ok(prefix: str, *, size: int = 2):
            return prefix * size

        assert registry.build("ok", "ab", size=3) == "ababab"


class TestDummyFactories:
    def test_available_kinds(self):
        from repro.scenario import DUMMIES

        assert set(DUMMIES.available()) >= {"mechanism_zero", "privunit_normal"}

    def test_mechanism_zero_randomizes_through_the_mechanism(self):
        from repro.ldp import BinaryRandomizedResponse
        from repro.scenario import DUMMIES

        factory = DUMMIES.build(
            "mechanism_zero", BinaryRandomizedResponse(1.0)
        )
        report, = factory(np.random.default_rng(0), 1)
        assert report in (0, 1)

    def test_mechanism_zero_requires_a_mechanism(self):
        from repro.scenario import DUMMIES

        with pytest.raises(ValidationError, match="has none"):
            DUMMIES.build("mechanism_zero", None)

    def test_privunit_normal_requires_privunit(self):
        from repro.ldp import BinaryRandomizedResponse
        from repro.scenario import DUMMIES

        with pytest.raises(ValidationError, match="privunit"):
            DUMMIES.build("privunit_normal", BinaryRandomizedResponse(1.0))

    def test_privunit_normal_yields_unit_scale_vectors(self):
        from repro.ldp import PrivUnit
        from repro.scenario import DUMMIES

        factory = DUMMIES.build("privunit_normal", PrivUnit(2.0, 8))
        dummies = factory(np.random.default_rng(0), 3)
        assert dummies.shape == (3, 8)


class TestDummySpecInScenario:
    def test_round_trips_through_json(self):
        scenario = Scenario(
            graph=GraphSpec.of("complete", num_nodes=16),
            mechanism={"kind": "privunit",
                       "params": {"epsilon": 2.0, "dimension": 4}},
            values={"kind": "bimodal_unit_vectors",
                    "params": {"dimension": 4}},
            dummies={"kind": "privunit_normal", "params": {"mean": 5.0}},
            protocol="single",
            rounds=2,
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_single_protocol_uses_the_custom_dummy(self):
        scenario = Scenario(
            graph=GraphSpec.of("complete", num_nodes=16),
            mechanism={"kind": "privunit",
                       "params": {"epsilon": 2.0, "dimension": 4}},
            values={"kind": "bimodal_unit_vectors",
                    "params": {"dimension": 4}},
            dummies={"kind": "privunit_normal"},
            protocol="single",
            rounds=3,
            seed=4,
        )
        result = run(scenario)
        if result.protocol_result.dummy_count:
            dummies = [
                report.payload
                for report in result.protocol_result.server_reports
                if report.origin == -1
            ]
            assert all(d.shape == (4,) for d in dummies)

    def test_dummies_inert_under_a_all(self):
        """A protocol axis can sweep both algorithms from one base."""
        scenario = Scenario(
            graph=GraphSpec.of("complete", num_nodes=16),
            mechanism={"kind": "privunit",
                       "params": {"epsilon": 2.0, "dimension": 4}},
            values={"kind": "bimodal_unit_vectors",
                    "params": {"dimension": 4}},
            dummies={"kind": "privunit_normal"},
            protocol="all",
            rounds=2,
        )
        result = run(scenario)
        assert result.protocol_result.dummy_count == 0

    def test_dotted_sweep_reaches_dummy_params(self):
        scenario = Scenario(
            graph=GraphSpec.of("complete", num_nodes=16),
            dummies={"kind": "privunit_normal"},
            protocol="single",
            rounds=2,
        )
        updated = scenario.updated(**{"dummies.mean": 7.5})
        assert updated.dummies.params["mean"] == 7.5
