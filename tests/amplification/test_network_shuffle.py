"""Tests for the network-shuffling privacy theorems (5.3-5.6, 6.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amplification.network_shuffle import (
    epsilon_all_stationary,
    epsilon_all_symmetric,
    epsilon_from_report_sizes,
    epsilon_one,
    epsilon_single_stationary,
    epsilon_single_symmetric,
    max_delta0_for_clone,
    report_load_l2_bound,
    sum_squared_bound,
)
from repro.exceptions import ValidationError

N = 10_000
DELTA = 1e-6
UNIFORM_S = 1.0 / N


class TestSumSquaredBound:
    def test_equation7(self):
        assert sum_squared_bound(0.001, 0.3, 5) == pytest.approx(
            0.001 + 0.7**10
        )

    def test_capped_at_one(self):
        assert sum_squared_bound(0.5, 0.01, 0) == 1.0

    def test_monotone_decreasing_in_steps(self):
        values = [sum_squared_bound(0.001, 0.2, t) for t in range(20)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_limit_is_stationary_collision(self):
        assert sum_squared_bound(0.001, 0.3, 10_000) == pytest.approx(0.001)

    def test_rejects_bad_gap(self):
        with pytest.raises(ValidationError):
            sum_squared_bound(0.001, 1.5, 3)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValidationError):
            sum_squared_bound(0.001, 0.3, -1)

    @pytest.mark.parametrize("laziness", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("steps", [0, 1, 7, 40])
    def test_lazy_gap_matches_the_runner_formula(self, laziness, steps):
        """The lazy walk decays at ``(1 - p) alpha``: bit-identical to the
        formula the scenario runner used to carry, including ``p = 1``
        (no decay), which a zero-gap check would have refused."""
        collision, gap = 0.0123, 0.2718
        lazy_gap = (1.0 - laziness) * gap
        assert sum_squared_bound(collision, gap, steps, laziness) == min(
            1.0, collision + (1.0 - lazy_gap) ** (2 * steps)
        )

    def test_rejects_bad_laziness(self):
        with pytest.raises(ValidationError, match="laziness"):
            sum_squared_bound(0.001, 0.3, 3, 1.5)


class TestLemma51:
    def test_formula(self):
        bound = report_load_l2_bound(N, UNIFORM_S, DELTA)
        expected = math.sqrt((N * N - N) * UNIFORM_S) + math.sqrt(
            N * math.log(1 / DELTA)
        )
        assert bound == pytest.approx(expected)

    def test_epsilon_one_is_bound_over_n(self):
        assert epsilon_one(N, UNIFORM_S, DELTA) == pytest.approx(
            report_load_l2_bound(N, UNIFORM_S, DELTA) / N
        )

    def test_epsilon_one_grows_with_collision(self):
        low = epsilon_one(N, 1.0 / N, DELTA)
        high = epsilon_one(N, 100.0 / N, DELTA)
        assert high > low

    def test_rejects_collision_below_uniform(self):
        """sum P^2 >= 1/n always (Cauchy-Schwarz)."""
        with pytest.raises(ValidationError):
            epsilon_one(N, 0.5 / N, DELTA)

    def test_rejects_collision_above_one(self):
        with pytest.raises(ValidationError):
            epsilon_one(N, 1.1, DELTA)


class TestTheorem53:
    def test_formula_against_manual(self):
        eps0 = 1.0
        bound = epsilon_all_stationary(eps0, N, UNIFORM_S, DELTA, DELTA)
        eps1 = epsilon_one(N, UNIFORM_S, DELTA)
        amplification = math.expm1(eps0) * math.exp(2 * eps0)
        expected = (
            amplification**2 * eps1**2 / 2
            + amplification * eps1 * math.sqrt(2 * math.log(1 / DELTA))
        )
        assert bound.epsilon == pytest.approx(expected)
        assert bound.delta == pytest.approx(2 * DELTA)
        assert bound.theorem.startswith("5.3")

    def test_amplifies_at_small_eps0(self):
        bound = epsilon_all_stationary(0.2, 1_000_000, 1e-6, DELTA, DELTA)
        assert bound.epsilon < 0.2
        assert bound.amplified

    def test_monotone_in_eps0(self):
        values = [
            epsilon_all_stationary(e, N, UNIFORM_S, DELTA, DELTA).epsilon
            for e in (0.2, 0.5, 1.0, 2.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_collision_mass(self):
        low = epsilon_all_stationary(1.0, N, 1.0 / N, DELTA, DELTA).epsilon
        high = epsilon_all_stationary(1.0, N, 10.0 / N, DELTA, DELTA).epsilon
        assert high > low

    def test_larger_n_amplifies_more(self):
        small = epsilon_all_stationary(1.0, 10_000, 1.0 / 10_000, DELTA, DELTA)
        large = epsilon_all_stationary(
            1.0, 1_000_000, 1.0 / 1_000_000, DELTA, DELTA
        )
        assert large.epsilon < small.epsilon

    def test_delta2_defaults_to_delta(self):
        explicit = epsilon_all_stationary(1.0, N, UNIFORM_S, DELTA, DELTA)
        default = epsilon_all_stationary(1.0, N, UNIFORM_S, DELTA)
        assert default.epsilon == explicit.epsilon
        assert default.delta == explicit.delta

    def test_amplification_ratio(self):
        bound = epsilon_all_stationary(0.2, 1_000_000, 1e-6, DELTA, DELTA)
        assert bound.amplification_ratio == pytest.approx(0.2 / bound.epsilon)

    def test_approximate_variant_costs_more(self):
        pure = epsilon_all_stationary(0.3, N, UNIFORM_S, DELTA, DELTA)
        delta1 = 1e-9
        delta0 = max_delta0_for_clone(0.3, delta1) / 2
        approx = epsilon_all_stationary(
            0.3, N, UNIFORM_S, DELTA, DELTA, delta0=delta0, delta1=delta1
        )
        assert approx.epsilon > pure.epsilon
        assert approx.delta > pure.delta
        assert "approx" in approx.theorem

    def test_approximate_rejects_excessive_delta0(self):
        delta1 = 1e-9
        limit = max_delta0_for_clone(0.3, delta1)
        with pytest.raises(ValidationError):
            epsilon_all_stationary(
                0.3, N, UNIFORM_S, DELTA, DELTA,
                delta0=limit * 10, delta1=delta1,
            )


class TestTheorem54:
    def test_uniform_distribution_close_to_53(self):
        """With an exactly uniform position distribution (rho* = 1) the
        symmetric theorem reduces to the stationary one."""
        uniform = np.full(N, 1.0 / N)
        symmetric = epsilon_all_symmetric(1.0, N, uniform, DELTA, DELTA)
        stationary = epsilon_all_stationary(1.0, N, 1.0 / N, DELTA, DELTA)
        assert symmetric.epsilon == pytest.approx(stationary.epsilon)

    def test_rho_star_penalty(self):
        """A skewed distribution pays a rho*^2 factor."""
        uniform = np.full(1000, 1e-3)
        skewed = np.full(1000, 1e-3)
        skewed[0] = 2e-3
        skewed[1] = 0.0
        skewed /= skewed.sum()
        assert (
            epsilon_all_symmetric(1.0, 1000, skewed, DELTA, DELTA).epsilon
            > epsilon_all_symmetric(1.0, 1000, uniform, DELTA, DELTA).epsilon
        )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            epsilon_all_symmetric(1.0, 10, np.full(5, 0.2), DELTA, DELTA)

    def test_zeros_allowed_in_distribution(self):
        distribution = np.zeros(100)
        distribution[:10] = 0.1
        bound = epsilon_all_symmetric(0.5, 100, distribution, DELTA, DELTA)
        assert bound.epsilon > 0.0


class TestTheorem55:
    def test_formula_against_manual(self):
        eps0, s = 1.0, UNIFORM_S
        bound = epsilon_single_stationary(eps0, N, s, DELTA)
        amplification = math.exp(eps0) * math.expm1(eps0)
        expected = (
            amplification**2 * s / 2
            + amplification * math.sqrt(2 * math.log(1 / DELTA) * s)
        )
        assert bound.epsilon == pytest.approx(expected)
        assert bound.delta == DELTA

    def test_single_beats_all_at_large_eps0(self):
        eps0 = 3.0
        single = epsilon_single_stationary(eps0, N, UNIFORM_S, DELTA)
        both = epsilon_all_stationary(eps0, N, UNIFORM_S, DELTA, DELTA)
        assert single.epsilon < both.epsilon

    def test_approximate_variant(self):
        delta1 = 1e-10
        delta0 = max_delta0_for_clone(0.2, delta1) / 2
        bound = epsilon_single_stationary(
            0.2, N, UNIFORM_S, DELTA, delta0=delta0, delta1=delta1
        )
        assert "approx" in bound.theorem
        assert bound.delta > DELTA


class TestTheorem56:
    def test_matches_55_at_same_collision(self):
        distribution = np.full(N, 1.0 / N)
        symmetric = epsilon_single_symmetric(1.0, N, distribution, DELTA)
        stationary = epsilon_single_stationary(1.0, N, 1.0 / N, DELTA)
        assert symmetric.epsilon == pytest.approx(stationary.epsilon)
        assert "5.6" in symmetric.theorem

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            epsilon_single_symmetric(1.0, 10, np.full(3, 1 / 3), DELTA)


class TestMaxDelta0:
    def test_positive(self):
        assert max_delta0_for_clone(1.0, 1e-9) > 0.0

    def test_smaller_delta1_smaller_limit(self):
        assert max_delta0_for_clone(1.0, 1e-12) < max_delta0_for_clone(
            1.0, 1e-6
        )


class TestTheorem61Accounting:
    def test_uniform_allocation(self):
        sizes = np.ones(N, dtype=int)
        eps = epsilon_from_report_sizes(1.0, sizes, DELTA)
        assert eps > 0.0

    def test_concentrated_allocation_worse(self):
        uniform = np.ones(1000, dtype=int)
        concentrated = np.zeros(1000, dtype=int)
        concentrated[0] = 1000
        assert epsilon_from_report_sizes(
            1.0, concentrated, DELTA
        ) > epsilon_from_report_sizes(1.0, uniform, DELTA)

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError):
            epsilon_from_report_sizes(1.0, [2, 2, 2], DELTA)

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValidationError):
            epsilon_from_report_sizes(1.0, [-1, 2, 2], DELTA)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            epsilon_from_report_sizes(1.0, [], DELTA)

    def test_below_closed_form(self):
        """A typical realized allocation beats the worst-case bound."""
        rng = np.random.default_rng(0)
        holders = rng.integers(0, 1000, size=1000)
        sizes = np.bincount(holders, minlength=1000)
        empirical = epsilon_from_report_sizes(1.0, sizes, DELTA)
        closed = epsilon_all_stationary(
            1.0, 1000, 1.0 / 1000, DELTA, DELTA
        ).epsilon
        assert empirical < closed

    @given(st.integers(min_value=10, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, n):
        rng = np.random.default_rng(n)
        sizes = np.bincount(rng.integers(0, n, size=n), minlength=n)
        shuffled = rng.permutation(sizes)
        assert epsilon_from_report_sizes(0.5, sizes, DELTA) == pytest.approx(
            epsilon_from_report_sizes(0.5, shuffled, DELTA)
        )
