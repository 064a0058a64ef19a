"""Tests for DP composition theorems."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.amplification.composition import (
    advanced_composition,
    basic_composition,
    heterogeneous_advanced_composition,
)
from repro.exceptions import http_status_for


class TestBasicComposition:
    def test_epsilons_add(self):
        eps, delta = basic_composition([0.1, 0.2, 0.3])
        assert eps == pytest.approx(0.6)
        assert delta == 0.0

    def test_deltas_add(self):
        eps, delta = basic_composition([0.1], [1e-6, 1e-6])
        assert delta == pytest.approx(2e-6)

    def test_empty(self):
        assert basic_composition([]) == (0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(Exception):
            basic_composition([-0.1])


class TestAdvancedComposition:
    def test_formula(self):
        eps, delta = advanced_composition(0.1, 1e-6, 100)
        expected = (
            math.sqrt(2 * 100 * math.log(1e6)) * 0.1
            + 100 * 0.1 * math.expm1(0.1)
        )
        assert eps == pytest.approx(expected)
        assert delta == pytest.approx(1e-6)

    def test_beats_basic_for_many_small(self):
        k, eps0 = 400, 0.05
        advanced, _ = advanced_composition(eps0, 1e-6, k)
        basic, _ = basic_composition([eps0] * k)
        assert advanced < basic

    def test_delta_accumulates(self):
        _, delta = advanced_composition(0.1, 1e-6, 10, delta=1e-8)
        assert delta == pytest.approx(10 * 1e-8 + 1e-6)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError) as caught:
            advanced_composition(0.1, 1e-6, 0)
        assert http_status_for(caught.value) == 400


class TestHeterogeneousComposition:
    """Equation 6 of the paper (Kairouz-Oh-Viswanath)."""

    def test_empty_is_zero(self):
        assert heterogeneous_advanced_composition([], 1e-6) == 0.0

    def test_single_mechanism(self):
        eps0 = 0.3
        composed = heterogeneous_advanced_composition([eps0], 1e-6)
        expected = (
            math.expm1(eps0) * eps0 / (math.exp(eps0) + 1)
            + math.sqrt(2 * math.log(1e6) * eps0**2)
        )
        assert composed == pytest.approx(expected)

    def test_homogeneous_case_scaling(self):
        """For k identical mechanisms the quadratic term scales sqrt(k)."""
        eps0, delta = 0.05, 1e-6
        one = heterogeneous_advanced_composition([eps0], delta)
        hundred = heterogeneous_advanced_composition([eps0] * 100, delta)
        # Linear part is tiny at eps0=0.05; the root part scales 10x.
        assert hundred == pytest.approx(10 * one, rel=0.05)

    def test_monotone_in_each_epsilon(self):
        base = heterogeneous_advanced_composition([0.1, 0.2], 1e-6)
        bigger = heterogeneous_advanced_composition([0.1, 0.3], 1e-6)
        assert bigger > base

    def test_monotone_in_delta(self):
        strict = heterogeneous_advanced_composition([0.1] * 10, 1e-9)
        loose = heterogeneous_advanced_composition([0.1] * 10, 1e-3)
        assert strict > loose

    def test_rejects_negative_epsilon(self):
        """Negative and non-finite epsilons are refused as a 400."""
        for epsilon in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError) as caught:
                heterogeneous_advanced_composition([0.1, epsilon], 1e-6)
            assert http_status_for(caught.value) == 400

    def test_rejects_bad_delta(self):
        with pytest.raises(Exception):
            heterogeneous_advanced_composition([0.1], 0.0)

    def test_zero_epsilons_compose_to_zero(self):
        assert heterogeneous_advanced_composition([0.0] * 5, 1e-6) == 0.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30
        ),
        st.floats(min_value=1e-9, max_value=0.1),
    )
    @settings(max_examples=50)
    def test_dominated_by_basic_plus_slack(self, epsilons, delta):
        """KOV never exceeds basic composition's epsilon sum plus the
        sqrt slack term (sanity envelope)."""
        composed = heterogeneous_advanced_composition(epsilons, delta)
        envelope = sum(epsilons) + math.sqrt(
            2 * math.log(1 / delta) * sum(e * e for e in epsilons)
        )
        assert composed <= envelope + 1e-9
