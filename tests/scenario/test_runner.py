"""Acceptance: a seeded ``repro.run`` reproduces the hand-wired pipeline
bit for bit — reports, meters, and accounting — on the array engine and
on the per-message oracle (:mod:`repro.testing.oracle`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amplification.network_shuffle import (
    epsilon_all_stationary,
    epsilon_all_symmetric,
    epsilon_from_report_sizes,
    epsilon_single_stationary,
)
from repro.exceptions import ValidationError
from repro.graphs.generators import random_regular_graph
from repro.graphs.spectral import spectral_summary
from repro.graphs.walks import position_distribution
from repro.ldp import BinaryRandomizedResponse
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.single_protocol import run_single_protocol
from repro.scenario import (
    GraphSpec,
    MechanismSpec,
    Scenario,
    ValuesSpec,
    bound,
    run,
    seed_streams,
)

_N = 64
_DEGREE = 4
_ROUNDS = 6
_SEED = 2024
_EPSILON0 = 1.0
_DELTA = 1e-6


def _scenario(protocol: str, engine: str, **overrides) -> Scenario:
    kwargs = dict(
        graph=GraphSpec.of("k_regular", degree=_DEGREE, num_nodes=_N),
        mechanism=MechanismSpec.of("rr", epsilon=_EPSILON0),
        values=ValuesSpec.of("bernoulli", rate=0.4),
        protocol=protocol,
        rounds=_ROUNDS,
        engine=engine,
        delta=_DELTA,
        delta2=_DELTA,
        seed=_SEED,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def _hand_wired(protocol: str, engine: str):
    """The pre-Scenario pipeline, drawing RNGs per the documented contract."""
    streams = seed_streams(_SEED)
    graph = random_regular_graph(_DEGREE, _N, rng=streams.graph)
    values = (streams.values.random(_N) < 0.4).astype(int).tolist()
    randomizer = BinaryRandomizedResponse(_EPSILON0)
    runner = run_all_protocol if protocol == "all" else run_single_protocol
    result = runner(
        graph, _ROUNDS,
        values=values, randomizer=randomizer,
        engine=engine, rng=streams.protocol,
    )
    summary = spectral_summary(graph)
    sum_squared = summary.sum_squared_bound(_ROUNDS)
    if protocol == "all":
        theorem = epsilon_all_stationary(_EPSILON0, _N, sum_squared, _DELTA, _DELTA)
        # Theorem 6.1 empirical accounting applies to A_all only (the
        # A_single adversary never observes the allocation).
        empirical = epsilon_from_report_sizes(_EPSILON0, result.allocation, _DELTA)
    else:
        theorem = epsilon_single_stationary(_EPSILON0, _N, sum_squared, _DELTA)
        empirical = None
    return result, theorem, empirical


@pytest.mark.parametrize("engine", ["fast", "faithful", "compiled"])
@pytest.mark.parametrize("protocol", ["all", "single"])
class TestHandWiredEquivalence:
    """The ``faithful`` case exchanges the hand-wired side on the oracle."""

    def test_reports_meters_and_accounting_identical(
        self, protocol, engine, on_oracle
    ):
        with on_oracle(engine == "faithful"):
            expected, expected_bound, expected_empirical = _hand_wired(
                protocol, engine
            )
        got = run(_scenario(protocol, engine))

        # Simulation: identical reports (origin AND payload), allocation.
        assert [r.origin for r in got.protocol_result.server_reports] == [
            r.origin for r in expected.server_reports
        ]
        assert got.protocol_result.payloads() == expected.payloads()
        np.testing.assert_array_equal(
            got.protocol_result.allocation, expected.allocation
        )
        np.testing.assert_array_equal(
            got.protocol_result.delivered_by, expected.delivered_by
        )
        assert got.protocol_result.dummy_count == expected.dummy_count

        # Meters: identical per-entity traffic.
        n = expected.num_users
        assert [got.meters.meter(u).messages_sent for u in range(n)] == [
            expected.meters.meter(u).messages_sent for u in range(n)
        ]
        assert got.meters.max_peak_items() == expected.meters.max_peak_items()

        # Accounting: identical amplified epsilon, exactly.
        assert got.bound.epsilon == expected_bound.epsilon
        assert got.bound.delta == expected_bound.delta
        assert got.bound.theorem == expected_bound.theorem
        assert got.empirical_epsilon == expected_empirical

    def test_engines_agree_with_each_other(self, protocol, engine, on_oracle):
        reference = run(_scenario(protocol, "fast"))
        with on_oracle(engine == "faithful"):
            other = run(_scenario(protocol, engine))
        assert [r.origin for r in other.protocol_result.server_reports] == [
            r.origin for r in reference.protocol_result.server_reports
        ]
        assert other.central_epsilon == reference.central_epsilon


class TestOracleParity:
    """A seeded ``repro.run`` at a few thousand users with dropout, on
    the array engine, against the per-message oracle: the same payloads,
    allocation, meters and epsilon."""

    @pytest.mark.parametrize("protocol", ["all", "single"])
    def test_run_matches_oracle_with_dropout(self, protocol, on_oracle):
        scenario = _scenario(
            protocol, "fast",
            graph=GraphSpec.of("k_regular", degree=8, num_nodes=3000),
            rounds=12, laziness=0.2,
        )
        engine = run(scenario)
        with on_oracle():
            oracle = run(scenario)
        got, want = engine.protocol_result, oracle.protocol_result
        assert got.payloads() == want.payloads()
        assert [r.origin for r in got.server_reports] == [
            r.origin for r in want.server_reports
        ]
        np.testing.assert_array_equal(got.allocation, want.allocation)
        np.testing.assert_array_equal(got.delivered_by, want.delivered_by)
        assert got.dummy_count == want.dummy_count
        for user in range(-1, got.num_users):  # -1 is the server
            assert got.meters.meter(user) == want.meters.meter(user), user
        assert engine.central_epsilon == oracle.central_epsilon
        assert engine.empirical_epsilon == oracle.empirical_epsilon


class TestRunBehavior:
    @pytest.mark.parametrize("protocol", ["all", "single"])
    def test_engine_aliases_give_identical_outputs(self, protocol):
        """Every ``engine`` spelling runs the one array engine: the same
        bits and the same backend label."""
        results = {
            engine: run(_scenario(protocol, engine))
            for engine in ("fast", "vectorized", "faithful", "compiled")
        }
        reference = results["vectorized"]
        for engine, other in results.items():
            got, want = other.protocol_result, reference.protocol_result
            assert got.payloads() == want.payloads(), engine
            np.testing.assert_array_equal(got.allocation, want.allocation)
            np.testing.assert_array_equal(got.delivered_by, want.delivered_by)
            np.testing.assert_array_equal(
                got.meters.messages_sent, want.meters.messages_sent
            )
            assert other.central_epsilon == reference.central_epsilon
            assert other.empirical_epsilon == reference.empirical_epsilon
            assert other.summary()["backend"] == "vectorized"

    def test_rounds_default_to_mixing_time(self):
        scenario = _scenario("all", "fast", rounds=None)
        result = run(scenario)
        from repro.scenario import graph_summary

        assert result.rounds == graph_summary(scenario).mixing_time

    def test_symmetric_analysis_matches_theorem_54(self):
        scenario = _scenario("all", "fast", analysis="symmetric")
        result = run(scenario)
        distribution = position_distribution(result.graph, 0, _ROUNDS)
        expected = epsilon_all_symmetric(
            _EPSILON0, _N, distribution, _DELTA, _DELTA
        )
        assert result.bound.epsilon == expected.epsilon
        assert "5.4" in result.bound.theorem

    def test_single_protocol_has_no_empirical_epsilon(self):
        """Theorem 6.1 accounts the A_all adversary; A_single hides the
        allocation, so no empirical number is surfaced."""
        result = run(_scenario("single", "fast"))
        assert result.empirical_epsilon is None
        assert result.bound is not None

    def test_no_budget_skips_accounting(self):
        result = run(_scenario("all", "fast", mechanism=None, epsilon0=None))
        assert result.bound is None
        assert result.empirical_epsilon is None
        assert result.central_epsilon is None

    def test_epsilon0_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="epsilon0"):
            run(_scenario("all", "fast", epsilon0=2.0))

    def test_laziness_reaches_the_network(self):
        """With heavy laziness, reports spread across fewer holders."""
        still = run(_scenario("all", "fast", laziness=0.95))
        mobile = run(_scenario("all", "fast"))
        assert (still.protocol_result.allocation > 0).sum() >= (
            (mobile.protocol_result.allocation > 0).sum()
        )

    def test_faults_spec_equivalent_to_laziness(self):
        lazy = run(_scenario("all", "fast", laziness=0.3))
        faulty = run(_scenario(
            "all", "fast",
            faults={"kind": "independent", "params": {"probability": 0.3}},
        ))
        np.testing.assert_array_equal(
            lazy.protocol_result.allocation, faulty.protocol_result.allocation
        )

    def test_values_materialized_per_user(self):
        result = run(_scenario("all", "fast"))
        assert len(result.values) == _N
        assert set(result.values) <= {0, 1}

    def test_summary_is_jsonable(self):
        import json

        digest = run(_scenario("single", "fast")).summary()
        text = json.dumps(digest)
        assert "central_epsilon" in text

    def test_bound_without_simulation_matches_run(self):
        scenario = _scenario("all", "fast")
        assert bound(scenario).epsilon == run(scenario).bound.epsilon

    def test_delta2_reaches_single_protocol_approx_accounting(self):
        """An approximate-DP mechanism's delta' must include the
        scenario's delta2 for A_single too (Theorem 5.5 approx path)."""
        # Small eps0 keeps the n(e^eps+1)delta1 term of delta' tiny so
        # the delta2 contribution is visible; delta0 must satisfy the
        # Lemma 5.2 clone condition (~2.3e-12 here).
        gaussian = {"kind": "gaussian", "params": {"epsilon": 0.01, "delta": 1e-25}}
        small = bound(_scenario("single", "fast", mechanism=gaussian,
                                delta2=1e-8))
        large = bound(_scenario("single", "fast", mechanism=gaussian,
                                delta2=1e-3))
        assert large.epsilon == small.epsilon
        assert large.delta - small.delta == pytest.approx(1e-3 - 1e-8)


class TestAccountingSoundness:
    """Faults/laziness must reach the privacy accounting, not just the
    simulation — a lazy walk mixes slower, so the bound must be larger."""

    def test_stationary_bound_accounts_for_laziness(self):
        healthy = bound(_scenario("all", "fast"))
        lazy = bound(_scenario("all", "fast", laziness=0.5))
        assert lazy.epsilon > healthy.epsilon

    def test_symmetric_bound_accounts_for_laziness(self):
        healthy = bound(
            _scenario("all", "fast", analysis="symmetric"), rounds=12
        )
        lazy = bound(
            _scenario("all", "fast", analysis="symmetric", laziness=0.5),
            rounds=12,
        )
        # The lazy walk has spread less at the same t: larger collision
        # mass, weaker guarantee.
        assert lazy.sum_squared > healthy.sum_squared
        assert lazy.epsilon > healthy.epsilon

    @pytest.mark.parametrize("laziness", [0.0, 0.3])
    def test_symmetric_memo_matches_cold_bounds(self, laziness):
        """One bundle answers ascending, descending and repeated rounds
        bit for bit as a cold cache does."""
        from repro.scenario import clear_graph_cache

        base = _scenario("all", "fast", analysis="symmetric", laziness=laziness)
        order = [12, 4, 20, 20]
        clear_graph_cache()
        warm = [bound(base, rounds=steps) for steps in order]
        cold = []
        for steps in order:
            clear_graph_cache()
            cold.append(bound(base, rounds=steps))
        assert warm == cold

    def test_fully_lazy_walk_keeps_the_point_mass(self):
        """At ``laziness = 1`` no report moves: the collision bound is 1."""
        assert bound(_scenario("all", "fast", laziness=1.0)).sum_squared == 1.0

    def test_independent_faults_priced_like_laziness(self):
        lazy = bound(_scenario("all", "fast", laziness=0.3))
        faulty = bound(_scenario(
            "all", "fast",
            faults={"kind": "independent", "params": {"probability": 0.3}},
        ))
        assert faulty.epsilon == lazy.epsilon

    def test_unaccountable_fault_model_refused(self):
        from repro.scenario import stationary_bound

        scenario = _scenario(
            "all", "fast",
            faults={"kind": "adversarial", "params": {"offline_users": [0, 1]}},
        )
        for accountant in (bound, run, stationary_bound):
            with pytest.raises(ValidationError, match="no\\s+lazy-walk equivalent"):
                accountant(scenario)

    def test_custom_fault_model_with_dropout_probability_accountable(self):
        """A registered model declaring dropout_probability prices like
        the lazy walk — the extension point for custom fault models."""
        from repro.netsim.faults import IndependentDropout
        from repro.scenario import FAULTS

        kind = "every_other_round_test_only"
        if kind not in FAULTS:
            @FAULTS.register(kind, example={})
            class _Custom(IndependentDropout):  # noqa: F811
                def __init__(self):
                    super().__init__(0.3)

        custom = bound(_scenario("all", "fast", faults={"kind": kind}))
        lazy = bound(_scenario("all", "fast", laziness=0.3))
        assert custom.epsilon == lazy.epsilon

    def test_adversarial_faults_fine_without_accounting(self):
        result = run(_scenario(
            "all", "fast",
            mechanism=None,
            faults={"kind": "adversarial", "params": {"offline_users": [0, 1]}},
        ))
        assert result.bound is None

    def test_symmetric_analysis_requires_regular_graph(self):
        """Theorem 5.4/5.6 from node 0's walk is only valid when every
        user's distribution is a relabeling of it (k-regular graphs)."""
        star = Scenario(
            graph={"kind": "star", "params": {"num_leaves": 31}},
            epsilon0=_EPSILON0,
            analysis="symmetric",
            rounds=8,
        )
        with pytest.raises(ValidationError, match="k-regular"):
            bound(star)
        with pytest.raises(ValidationError, match="k-regular"):
            run(star)

    def test_epsilon0_mismatch_fails_before_simulating(self, monkeypatch):
        import repro.scenario.runner as runner_module

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulation ran before validation")

        monkeypatch.setattr(runner_module, "run_protocol", _boom)
        with pytest.raises(ValidationError, match="epsilon0"):
            run(_scenario("all", "fast", epsilon0=2.0))


class TestWorstUserSoundness:
    """Findings for ROADMAP direction 8, pricing every user rather than
    node 0.  Each compares a reported bound with the exact per-user
    truth, read from a dense ``t``-step profile panel.  When direction 8
    makes the bound cover the worst user, these xfails flip to passes."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP direction 8: the symmetric analysis prices node 0, and a "
        "random regular graph is not vertex-transitive"
    ))
    def test_symmetric_bound_covers_the_worst_user(self):
        from repro.experiments.config import DEFAULT_CONFIG
        from repro.graphs.dynamic import dense_panel
        from repro.scenario.runner import _bundle_for

        scenario = Scenario(
            graph=GraphSpec.of("k_regular", degree=8, num_nodes=2048),
            protocol="all", analysis="symmetric", epsilon0=1.0, rounds=7,
            delta=DEFAULT_CONFIG.delta, delta2=DEFAULT_CONFIG.delta2,
            seed=DEFAULT_CONFIG.seed,
        )
        reported = bound(scenario)
        n = reported.n
        profile = dense_panel(_bundle_for(scenario).profile_store(0.0, n).panel(7)[0])
        worst = max(
            epsilon_all_symmetric(
                1.0, n, profile[:, user], scenario.delta, scenario.delta2
            ).epsilon
            for user in range(n)
        )
        assert worst <= reported.epsilon

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP direction 8: Equation 7 omits the cross term of an "
        "irregular walk and understates the worst user"
    ))
    def test_stationary_collision_covers_the_worst_user(self):
        from repro.scenario.runner import _bundle_for

        scenario = Scenario(
            graph={"kind": "dataset", "params": {"name": "facebook", "scale": 0.1}},
            protocol="all", epsilon0=1.0, rounds=1, seed=0,
        )
        reported = bound(scenario)
        store = _bundle_for(scenario).profile_store(0.0, reported.n)
        assert store.collisions(1)[0].max() <= reported.sum_squared


class TestWalkCache:
    def test_incremental_sweep_matches_from_scratch(self):
        """Ascending-rounds sweeps reuse the walk cache bit-for-bit."""
        from repro.scenario import clear_graph_cache, sweep

        base = _scenario("all", "fast", analysis="symmetric")
        swept = sweep(base, axis={"rounds": [2, 5, 9]}, mode="bound")
        fresh = []
        for steps in (2, 5, 9):
            clear_graph_cache()  # force a cold, from-scratch walk
            fresh.append(bound(base, rounds=steps).epsilon)
        assert swept.epsilons() == fresh

    def test_descending_request_recomputes(self):
        base = _scenario("all", "fast", analysis="symmetric")
        high = bound(base, rounds=9).epsilon
        low = bound(base, rounds=2).epsilon
        from repro.scenario import clear_graph_cache

        clear_graph_cache()
        assert bound(base, rounds=2).epsilon == low
        assert bound(base, rounds=9).epsilon == high
