"""Tests for the estimation layer (mean / frequency / metrics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimation.frequency import run_frequency_estimation
from repro.estimation.mean import (
    generate_bimodal_unit_vectors,
    make_dummy_factory,
    mean_estimate_from_run,
    run_mean_estimation,
    true_mean,
)
from repro.estimation.metrics import (
    max_absolute_error,
    mean_squared_error,
    squared_l2_error,
)
from repro.exceptions import ValidationError
from repro.graphs.generators import random_regular_graph
from repro.ldp.privunit import PrivUnit
from repro.scenario import Scenario, run


class TestMetrics:
    def test_squared_l2(self):
        assert squared_l2_error(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 5.0

    def test_squared_l2_shape_mismatch(self):
        with pytest.raises(ValidationError):
            squared_l2_error(np.zeros(2), np.zeros(3))

    def test_mse_rows(self):
        estimates = np.array([[1.0, 0.0], [0.0, 1.0]])
        truths = np.zeros((2, 2))
        assert mean_squared_error(estimates, truths) == 1.0

    def test_max_abs(self):
        assert max_absolute_error(
            np.array([0.1, -0.5]), np.array([0.0, 0.0])
        ) == 0.5


class TestBimodalData:
    def test_unit_norms(self):
        data = generate_bimodal_unit_vectors(100, 50, rng=0)
        np.testing.assert_allclose(np.linalg.norm(data, axis=1), 1.0)

    def test_two_clusters(self):
        data = generate_bimodal_unit_vectors(200, 100, rng=0)
        half = 100
        # High-mean cluster concentrates harder on the diagonal.
        low_norm_of_mean = np.linalg.norm(data[:half].mean(axis=0))
        high_norm_of_mean = np.linalg.norm(data[half:].mean(axis=0))
        assert high_norm_of_mean > low_norm_of_mean

    def test_true_mean(self):
        data = generate_bimodal_unit_vectors(50, 10, rng=0)
        np.testing.assert_allclose(true_mean(data), data.mean(axis=0))

    def test_deterministic(self):
        a = generate_bimodal_unit_vectors(30, 10, rng=5)
        b = generate_bimodal_unit_vectors(30, 10, rng=5)
        np.testing.assert_array_equal(a, b)


class TestDummyFactory:
    def test_produces_debiased_reports(self, rng):
        randomizer = PrivUnit(2.0, 20)
        factory = make_dummy_factory(randomizer)
        dummy, = factory(rng, 1)
        assert dummy.shape == (20,)
        # Reports are scaled by 1/m, so their norm is 1/m.
        assert np.linalg.norm(dummy) == pytest.approx(
            1.0 / randomizer.scale, rel=1e-9
        )


class TestMeanEstimateFromRun:
    @pytest.mark.parametrize("load, missing", [
        pytest.param({"mechanism": {"kind": "rr", "params": {"epsilon": 1.0}}},
                     "vector values.*has none", id="no-values"),
        pytest.param({"mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
                      "values": {"kind": "bernoulli", "params": {"rate": 0.3}}},
                     "vector values.*scalar values", id="scalar-values"),
        pytest.param({"values": {"kind": "bimodal_unit_vectors", "params": {"dimension": 8}},
                      "epsilon0": 2.0},
                     "mechanism", id="no-mechanism"),
    ])
    def test_refuses_runs_it_cannot_score(self, load, missing):
        result = run(Scenario(
            graph={"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
            protocol="single", rounds=3, seed=0, **load,
        ))
        with pytest.raises(ValidationError, match=missing):
            mean_estimate_from_run(result)


class TestMeanEstimation:
    @pytest.fixture
    def setup(self):
        graph = random_regular_graph(6, 300, rng=0)
        values = generate_bimodal_unit_vectors(300, 30, rng=1)
        return graph, values

    def test_all_protocol_reasonable_error(self, setup):
        graph, values = setup
        result = run_mean_estimation(
            graph, values, 4.0, protocol="all", rounds=20, rng=2
        )
        assert result.protocol == "all"
        assert result.dummy_count == 0
        assert result.num_reports == 300
        assert result.squared_error < 1.0

    def test_single_protocol_has_dummies(self, setup):
        graph, values = setup
        result = run_mean_estimation(
            graph, values, 4.0, protocol="single", rounds=20, rng=2
        )
        assert result.dummy_count > 0
        assert result.num_reports == 300

    def test_error_decreases_with_epsilon(self, setup):
        graph, values = setup
        noisy = run_mean_estimation(
            graph, values, 1.0, protocol="all", rounds=10, rng=2
        )
        precise = run_mean_estimation(
            graph, values, 6.0, protocol="all", rounds=10, rng=2
        )
        assert precise.squared_error < noisy.squared_error

    def test_all_beats_single_at_same_eps0(self, setup):
        """At equal eps0 A_single pays the dummy-bias penalty on top of
        the same per-report noise.  High eps0 shrinks the shared noise
        so the penalty dominates; the comparison is seed-paired to cut
        Monte-Carlo variance."""
        graph, values = setup
        differences = []
        for seed in range(8):
            error_all = run_mean_estimation(
                graph, values, 6.0, protocol="all", rounds=15, rng=seed
            ).squared_error
            error_single = run_mean_estimation(
                graph, values, 6.0, protocol="single", rounds=15, rng=seed
            ).squared_error
            differences.append(error_single - error_all)
        assert np.mean(differences) > 0.0

    def test_default_rounds_is_mixing_time(self, setup):
        graph, values = setup
        result = run_mean_estimation(graph, values, 3.0, rng=0)
        assert result.squared_error >= 0.0

    def test_rejects_bad_protocol(self, setup):
        graph, values = setup
        with pytest.raises(ValidationError):
            run_mean_estimation(graph, values, 1.0, protocol="half", rng=0)

    def test_rejects_value_count_mismatch(self, setup):
        graph, _ = setup
        with pytest.raises(ValidationError):
            run_mean_estimation(graph, np.zeros((5, 3)), 1.0, rng=0)


class TestFrequencyEstimation:
    @pytest.fixture
    def setup(self):
        graph = random_regular_graph(6, 400, rng=0)
        symbols = np.arange(400) % 4
        return graph, symbols

    def test_estimates_frequencies(self, setup):
        graph, symbols = setup
        result = run_frequency_estimation(
            graph, symbols, 3.0, 4, rounds=15, rng=1
        )
        np.testing.assert_allclose(result.truth, 0.25)
        assert result.max_error < 0.15

    def test_single_protocol_runs(self, setup):
        graph, symbols = setup
        result = run_frequency_estimation(
            graph, symbols, 3.0, 4, protocol="single", rounds=15, rng=1
        )
        assert result.dummy_count > 0
        assert result.estimate.shape == (4,)

    def test_more_budget_less_error(self, setup):
        graph, symbols = setup
        noisy = np.mean([
            run_frequency_estimation(
                graph, symbols, 0.5, 4, rounds=10, rng=s
            ).max_error
            for s in range(5)
        ])
        precise = np.mean([
            run_frequency_estimation(
                graph, symbols, 5.0, 4, rounds=10, rng=s
            ).max_error
            for s in range(5)
        ])
        assert precise < noisy

    def test_rejects_out_of_range_symbols(self, setup):
        graph, symbols = setup
        with pytest.raises(ValidationError):
            run_frequency_estimation(graph, symbols, 1.0, 2, rng=0)

    def test_rejects_count_mismatch(self, setup):
        graph, _ = setup
        with pytest.raises(ValidationError):
            run_frequency_estimation(graph, np.array([0, 1]), 1.0, 2, rng=0)
