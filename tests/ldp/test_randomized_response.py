"""Tests for binary and k-ary randomized response."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ValidationError
from repro.ldp.randomized_response import (
    BinaryRandomizedResponse,
    KaryRandomizedResponse,
)


class TestBinaryRR:
    def test_truth_probability_formula(self):
        rr = BinaryRandomizedResponse(1.0)
        assert rr.truth_probability == pytest.approx(
            math.e / (math.e + 1.0)
        )

    def test_outputs_are_bits(self, rng):
        rr = BinaryRandomizedResponse(0.5)
        outputs = {rr.randomize(1, rng) for _ in range(50)}
        assert outputs.issubset({0, 1})

    def test_flip_rate_matches(self):
        rr = BinaryRandomizedResponse(1.0)
        out = rr.randomize_batch(np.zeros(100_000, dtype=int), rng=0)
        assert out.mean() == pytest.approx(1.0 - rr.truth_probability, abs=0.01)

    def test_likelihood_ratio_is_exp_eps(self):
        """The defining LDP property: P[1|1]/P[1|0] = e^eps."""
        epsilon = 0.8
        rr = BinaryRandomizedResponse(epsilon)
        p = rr.truth_probability
        assert p / (1 - p) == pytest.approx(math.exp(epsilon))

    def test_debias_unbiased(self):
        rr = BinaryRandomizedResponse(1.0)
        true_rate = 0.3
        bits = (np.arange(200_000) < 0.3 * 200_000).astype(int)
        reports = rr.randomize_batch(bits, rng=0)
        assert rr.debias(reports.mean()) == pytest.approx(true_rate, abs=0.01)

    def test_large_epsilon_mostly_truthful(self):
        rr = BinaryRandomizedResponse(10.0)
        out = rr.randomize_batch(np.ones(1000, dtype=int), rng=0)
        assert out.mean() > 0.99

    def test_rejects_non_bit(self):
        rr = BinaryRandomizedResponse(1.0)
        with pytest.raises(ValidationError):
            rr.randomize(2, rng=0)

    def test_rejects_bad_batch(self):
        rr = BinaryRandomizedResponse(1.0)
        with pytest.raises(ValidationError):
            rr.randomize_batch(np.array([0, 3]), rng=0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(Exception):
            BinaryRandomizedResponse(-1.0)

    def test_pure_dp(self):
        assert BinaryRandomizedResponse(1.0).is_pure


class TestKaryRR:
    def test_truth_probability_formula(self):
        krr = KaryRandomizedResponse(1.0, 10)
        assert krr.truth_probability == pytest.approx(
            math.e / (math.e + 9.0)
        )

    def test_binary_special_case_matches(self):
        binary = BinaryRandomizedResponse(1.3)
        kary = KaryRandomizedResponse(1.3, 2)
        assert kary.truth_probability == pytest.approx(binary.truth_probability)

    def test_outputs_in_alphabet(self, rng):
        krr = KaryRandomizedResponse(0.5, 5)
        outputs = {krr.randomize(2, rng) for _ in range(100)}
        assert outputs.issubset(set(range(5)))

    def test_never_lies_to_itself(self):
        """A 'lie' is always a *different* symbol."""
        krr = KaryRandomizedResponse(0.1, 4)
        out = krr.randomize_batch(np.full(100_000, 2), rng=0)
        truthful = np.mean(out == 2)
        # With eps=0.1, k=4: p ~ 1.105/4.105 ~ 0.269; lies spread over
        # the OTHER three symbols uniformly.
        assert truthful == pytest.approx(krr.truth_probability, abs=0.01)
        lie_counts = np.bincount(out, minlength=4)
        others = np.delete(lie_counts, 2)
        assert others.std() / others.mean() < 0.05

    def test_frequency_estimation_unbiased(self):
        krr = KaryRandomizedResponse(1.5, 5)
        truth = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        symbols = np.repeat(np.arange(5), (truth * 100_000).astype(int))
        reports = krr.randomize_batch(symbols, rng=0)
        estimate = krr.estimate_frequencies(reports)
        np.testing.assert_allclose(estimate, truth, atol=0.02)

    def test_debias_one_hot(self):
        krr = KaryRandomizedResponse(1.0, 3)
        contribution = krr.debias(1)
        assert contribution.shape == (3,)
        assert contribution.sum() == pytest.approx(1.0)

    def test_substitute_cells_cover_the_other_symbols(self):
        """``floor(u1 * (k-1))`` over ``[0, 1)``, the top cell included."""
        krr = KaryRandomizedResponse(1.0, 5)
        picks = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        np.testing.assert_array_equal(
            krr._substitutes(picks), [0, 0, 1, 2, 3, 3]
        )

    def test_each_value_draws_two_uniforms(self):
        """Kept or not, one value consumes exactly ``rng.random(2)``."""
        for epsilon in (0.01, 20.0):  # nearly always lies / keeps
            krr = KaryRandomizedResponse(epsilon, 6)
            used, reference = np.random.default_rng(7), np.random.default_rng(7)
            for value in range(6):
                krr.randomize(value, used)
                reference.random(2)
            assert used.random() == reference.random()

    def test_huge_alphabet_stays_in_range(self):
        num_symbols = 2**40
        krr = KaryRandomizedResponse(0.01, num_symbols)
        symbols = np.full(10_000, num_symbols - 1, dtype=np.int64)
        out = krr.randomize_batch(symbols, rng=0)
        lies = out[out != num_symbols - 1]
        assert lies.size > 0
        assert lies.min() >= 0 and lies.max() < num_symbols - 1

    def test_rejects_single_symbol(self):
        with pytest.raises(ValidationError):
            KaryRandomizedResponse(1.0, 1)

    def test_rejects_out_of_range_symbol(self):
        krr = KaryRandomizedResponse(1.0, 3)
        with pytest.raises(ValidationError):
            krr.randomize(3, rng=0)

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=30)
    def test_likelihood_ratio_property(self, epsilon, k):
        """P[report=s | true=s] / P[report=s | true=s'] = e^eps exactly."""
        krr = KaryRandomizedResponse(epsilon, k)
        p = krr.truth_probability
        q = (1.0 - p) / (k - 1.0)
        assert p / q == pytest.approx(math.exp(epsilon), rel=1e-9)
