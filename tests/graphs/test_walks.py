"""Tests for the random-walk engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import complete_graph, cycle_graph, random_regular_graph
from repro.graphs.spectral import lazy_transition_matrix, stationary_distribution
from repro.graphs.walks import (
    empirical_position_distribution,
    evolve_distribution,
    position_distribution,
    report_allocation,
    simulate_token_walks,
    simulate_trial_walks,
    sum_squared_positions,
    total_variation_to_stationary,
)


class TestEvolveDistribution:
    def test_zero_steps_identity(self, small_regular):
        initial = np.zeros(small_regular.num_nodes)
        initial[0] = 1.0
        np.testing.assert_array_equal(
            evolve_distribution(small_regular, initial, 0), initial
        )

    def test_preserves_probability_mass(self, small_regular):
        initial = np.full(small_regular.num_nodes, 1.0 / small_regular.num_nodes)
        result = evolve_distribution(small_regular, initial, 7)
        assert result.sum() == pytest.approx(1.0)
        assert np.all(result >= 0.0)

    def test_stationary_is_fixed_point(self, small_regular):
        pi = stationary_distribution(small_regular)
        result = evolve_distribution(small_regular, pi, 5)
        np.testing.assert_allclose(result, pi, atol=1e-12)

    def test_one_step_on_triangle(self, triangle):
        initial = np.array([1.0, 0.0, 0.0])
        result = evolve_distribution(triangle, initial, 1)
        np.testing.assert_allclose(result, [0.0, 0.5, 0.5])

    def test_converges_to_stationary(self, medium_regular):
        initial = np.zeros(medium_regular.num_nodes)
        initial[3] = 1.0
        result = evolve_distribution(medium_regular, initial, 100)
        pi = stationary_distribution(medium_regular)
        assert np.abs(result - pi).sum() < 1e-6

    def test_rejects_negative_steps(self, triangle):
        with pytest.raises(ValidationError):
            evolve_distribution(triangle, np.ones(3) / 3, -1)

    def test_rejects_bad_distribution(self, triangle):
        with pytest.raises(ValidationError):
            evolve_distribution(triangle, np.array([0.7, 0.7, -0.4]), 1)


class TestPositionDistribution:
    def test_point_mass_start(self, small_regular):
        result = position_distribution(small_regular, 0, 0)
        assert result[0] == 1.0
        assert result.sum() == 1.0

    def test_spreads_over_neighbors(self, k4):
        result = position_distribution(k4, 0, 1)
        np.testing.assert_allclose(result, [0.0, 1 / 3, 1 / 3, 1 / 3])

    def test_rejects_bad_start(self, k4):
        with pytest.raises(ValidationError):
            position_distribution(k4, 99, 1)

    @pytest.mark.parametrize("start", [2.5, True, "0"])
    def test_start_must_be_an_integer_node(self, k4, start):
        """A float or bool start is neither an IndexError nor a boolean
        mask that fails mass validation: it is named and rejected."""
        with pytest.raises(ValidationError, match="start_node"):
            position_distribution(k4, start, 1)

    def test_numpy_integer_start_accepted(self, k4):
        np.testing.assert_array_equal(
            position_distribution(k4, np.int64(2), 1),
            position_distribution(k4, 2, 1),
        )


class TestLazyTransitionMatrix:
    def test_zero_laziness_is_plain(self, k4):
        from repro.graphs.spectral import transition_matrix

        lazy = lazy_transition_matrix(k4, 0.0)
        np.testing.assert_allclose(
            lazy.toarray(), transition_matrix(k4).toarray()
        )

    def test_full_laziness_is_identity(self, k4):
        lazy = lazy_transition_matrix(k4, 1.0)
        np.testing.assert_allclose(lazy.toarray(), np.eye(4))

    def test_makes_bipartite_ergodic(self):
        """A lazy walk on an even cycle converges (the Section 4.5 fix)."""
        graph = cycle_graph(6)
        initial = np.zeros(6)
        initial[0] = 1.0
        result = evolve_distribution(graph, initial, 400, laziness=0.3)
        np.testing.assert_allclose(result, 1.0 / 6, atol=1e-6)

    def test_without_laziness_bipartite_oscillates(self):
        graph = cycle_graph(6)
        initial = np.zeros(6)
        initial[0] = 1.0
        result = evolve_distribution(graph, initial, 400)
        # Mass stays on the even side at even times.
        assert result[1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_laziness(self, k4):
        with pytest.raises(ValidationError):
            lazy_transition_matrix(k4, 1.5)


class TestTraceWalk:
    """A walk's per-step statistics (what Figure 5 plots): the collision
    mass and graph TV distance of ``evolve_distribution`` at each t."""

    def test_sum_squared_starts_at_one(self, small_regular):
        initial = np.zeros(small_regular.num_nodes)
        initial[0] = 1.0
        start = evolve_distribution(small_regular, initial, 0)
        assert sum_squared_positions(start) == pytest.approx(1.0)

    def test_tv_decreases_overall(self, medium_regular):
        initial = np.zeros(medium_regular.num_nodes)
        initial[0] = 1.0
        first, last = (
            total_variation_to_stationary(
                medium_regular, evolve_distribution(medium_regular, initial, t)
            )
            for t in (0, 50)
        )
        assert last < 0.01 * first


class TestTotalVariation:
    def test_zero_at_stationary(self, small_regular):
        pi = stationary_distribution(small_regular)
        assert total_variation_to_stationary(small_regular, pi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_point_mass_value(self, k4):
        initial = np.zeros(4)
        initial[0] = 1.0
        # ||delta_0 - uniform||_1 = (1 - 1/4) + 3*(1/4) = 1.5
        assert total_variation_to_stationary(k4, initial) == pytest.approx(1.5)


class TestSumSquaredPositions:
    def test_point_mass(self):
        assert sum_squared_positions(np.array([1.0, 0.0])) == 1.0

    def test_uniform(self):
        assert sum_squared_positions(np.full(10, 0.1)) == pytest.approx(0.1)

    @given(st.integers(min_value=1, max_value=50))
    def test_uniform_formula(self, n):
        assert sum_squared_positions(np.full(n, 1.0 / n)) == pytest.approx(
            1.0 / n
        )


class TestSimulateTokenWalks:
    def test_token_count_preserved(self, small_regular):
        starts = np.arange(small_regular.num_nodes)
        finals = simulate_token_walks(small_regular, starts, 5, rng=0)
        assert finals.shape == starts.shape
        assert finals.min() >= 0
        assert finals.max() < small_regular.num_nodes

    def test_zero_steps_stay_put(self, small_regular):
        starts = np.arange(small_regular.num_nodes)
        finals = simulate_token_walks(small_regular, starts, 0, rng=0)
        np.testing.assert_array_equal(finals, starts)

    def test_one_step_lands_on_neighbor(self, small_regular):
        starts = np.zeros(100, dtype=np.int64)
        finals = simulate_token_walks(small_regular, starts, 1, rng=0)
        neighbors = set(small_regular.neighbors(0).tolist())
        assert set(finals.tolist()).issubset(neighbors)

    def test_full_laziness_freezes(self, small_regular):
        starts = np.arange(small_regular.num_nodes)
        finals = simulate_token_walks(
            small_regular, starts, 10, laziness=1.0, rng=0
        )
        np.testing.assert_array_equal(finals, starts)

    def test_deterministic_with_seed(self, small_regular):
        starts = np.arange(small_regular.num_nodes)
        a = simulate_token_walks(small_regular, starts, 5, rng=3)
        b = simulate_token_walks(small_regular, starts, 5, rng=3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_out_of_range_start(self, k4):
        with pytest.raises(ValidationError):
            simulate_token_walks(k4, np.array([9]), 1, rng=0)

    def test_empirical_matches_exact(self, small_regular):
        """Monte-Carlo distribution converges to the matrix evolution."""
        exact = position_distribution(small_regular, 0, 6)
        empirical = empirical_position_distribution(
            small_regular, 0, 6, num_samples=200_000, rng=0
        )
        assert np.abs(exact - empirical).sum() < 0.05


class TestReportAllocation:
    def test_conservation(self, small_regular):
        allocation = report_allocation(small_regular, 10, rng=0)
        assert allocation.sum() == small_regular.num_nodes

    def test_zero_rounds_one_each(self, small_regular):
        allocation = report_allocation(small_regular, 0, rng=0)
        np.testing.assert_array_equal(
            allocation, np.ones(small_regular.num_nodes)
        )

    def test_complete_graph_spread(self):
        graph = complete_graph(50)
        allocation = report_allocation(graph, 3, rng=0)
        # Nobody should hoard a large fraction after mixing on K_n.
        assert allocation.max() < 15


#: Each walk function as ``(topology, rng) -> array``, on a lazy walk.
_WALKS = {
    "evolve_distribution": lambda topology, rng: evolve_distribution(
        topology, np.full(40, 1.0 / 40) * 0.5 + np.eye(40)[3] * 0.5, 9,
        laziness=0.25,
    ),
    "position_distribution": lambda topology, rng: position_distribution(
        topology, 7, 9, laziness=0.25
    ),
    "simulate_token_walks": lambda topology, rng: simulate_token_walks(
        topology, np.arange(40), 9, laziness=0.25, rng=rng
    ),
    "simulate_trial_walks": lambda topology, rng: simulate_trial_walks(
        topology, np.arange(40), 9, 5, laziness=0.25, rng=rng
    ),
    "empirical_position_distribution": (
        lambda topology, rng: empirical_position_distribution(
            topology, 7, 9, num_samples=500, laziness=0.25, rng=rng
        )
    ),
    "report_allocation": lambda topology, rng: report_allocation(
        topology, 9, laziness=0.25, rng=rng
    ),
}


@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_graph_and_one_graph_schedule_are_bit_identical(walk):
    """A static graph is walked as a one-graph schedule: same arrays,
    same generator state afterwards."""
    graph = random_regular_graph(4, 40, rng=0)
    on_graph_rng = np.random.default_rng(11)
    on_schedule_rng = np.random.default_rng(11)
    on_graph = _WALKS[walk](graph, on_graph_rng)
    on_schedule = _WALKS[walk](DynamicGraphSchedule([graph]), on_schedule_rng)
    np.testing.assert_array_equal(on_graph, on_schedule)
    assert on_graph_rng.random() == on_schedule_rng.random()
