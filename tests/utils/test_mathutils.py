"""Tests for numerically stable math helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ValidationError
from repro.utils.mathutils import (
    binary_search_monotone,
    log1mexp,
    log_add_exp,
    log_sub_exp,
    softplus_inverse,
    stable_argsort,
    stable_expm1,
)


class TestLog1mexp:
    def test_known_value(self):
        assert log1mexp(math.log(0.5)) == pytest.approx(math.log(0.5))

    def test_rejects_non_negative(self):
        with pytest.raises(ValueError):
            log1mexp(0.0)

    @given(st.floats(min_value=-50.0, max_value=-1e-9))
    def test_exp_roundtrip(self, x):
        # exp(log1mexp(x)) must equal 1 - e^x; compare through the
        # stable -expm1 form (the naive log1p(-exp(x)) reference loses
        # all precision near zero — that is the point of log1mexp).
        assert math.exp(log1mexp(x)) == pytest.approx(-math.expm1(x), rel=1e-9)


class TestLogAddSubExp:
    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    def test_add_matches_numpy(self, a, b):
        assert log_add_exp(a, b) == pytest.approx(np.logaddexp(a, b), rel=1e-12)

    def test_add_with_neg_inf(self):
        assert log_add_exp(-math.inf, 3.0) == 3.0
        assert log_add_exp(3.0, -math.inf) == 3.0

    def test_sub_roundtrip(self):
        a, b = 5.0, 2.0
        result = log_sub_exp(a, b)
        assert math.exp(result) == pytest.approx(math.exp(a) - math.exp(b))

    def test_sub_requires_a_greater(self):
        with pytest.raises(ValueError):
            log_sub_exp(1.0, 1.0)

    def test_sub_neg_inf_b(self):
        assert log_sub_exp(2.0, -math.inf) == 2.0


class TestSoftplusInverse:
    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_inverts_softplus(self, x):
        y = math.log1p(math.exp(x)) if x < 20 else x
        assert softplus_inverse(y) == pytest.approx(x, abs=1e-8)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            softplus_inverse(0.0)


class TestStableExpm1:
    def test_small_argument_precision(self):
        assert stable_expm1(1e-12) == pytest.approx(1e-12, rel=1e-6)


class TestBinarySearchMonotone:
    def test_finds_square_root(self):
        root = binary_search_monotone(lambda x: x * x, 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_decreasing_function(self):
        root = binary_search_monotone(
            lambda x: 1.0 / x, 0.25, 1.0, 10.0, increasing=False
        )
        assert root == pytest.approx(4.0, abs=1e-6)

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            binary_search_monotone(lambda x: x, 0.0, 1.0, 1.0)


#: Token counts at and around the packing shift's boundaries, where
#: ``count.bit_length()`` steps up.
_BOUNDARY_COUNTS = [1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 255, 256, 257, 1024]


@st.composite
def _keyed(draw):
    """``(keys, n)``: keys in ``[0, n)``, biased towards repeats, the
    all-equal case and the top key ``n - 1``."""
    count = draw(
        st.one_of(st.sampled_from(_BOUNDARY_COUNTS),
                  st.integers(min_value=0, max_value=300))
    )
    n = draw(st.integers(min_value=1, max_value=2 * count + 2))
    keys = draw(
        st.lists(
            st.one_of(st.just(n - 1), st.integers(0, n - 1)),
            min_size=count, max_size=count,
        )
    )
    return np.array(keys, dtype=np.int64), n


class TestStableArgsort:
    @given(_keyed())
    def test_matches_numpy_stable_argsort(self, keyed):
        keys, _ = keyed
        result = stable_argsort(keys)
        assert result.dtype == np.int64
        np.testing.assert_array_equal(
            result, np.argsort(keys, kind="stable")
        )

    @pytest.mark.parametrize("count", _BOUNDARY_COUNTS)
    def test_all_equal_keys_keep_index_order(self, count):
        keys = np.full(count, 5, dtype=np.int64)
        np.testing.assert_array_equal(stable_argsort(keys), np.arange(count))

    def test_empty_and_single(self):
        assert stable_argsort(np.empty(0, dtype=np.int64)).size == 0
        np.testing.assert_array_equal(stable_argsort(np.array([9])), [0])

    def test_negative_and_narrow_keys(self):
        keys = np.array([3, -2, 3, -2, 0, -7], dtype=np.int32)
        np.testing.assert_array_equal(
            stable_argsort(keys), np.argsort(keys, kind="stable")
        )

    def test_does_not_mutate_keys(self):
        keys = np.array([2, 0, 1, 0], dtype=np.int64)
        stable_argsort(keys)
        np.testing.assert_array_equal(keys, [2, 0, 1, 0])

    @pytest.mark.parametrize("count", [1, 4, 1000])
    def test_overflow_raises(self, count):
        shift = count.bit_length()
        limit = np.iinfo(np.int64).max >> shift
        keys = np.zeros(count, dtype=np.int64)
        keys[-1] = limit
        np.testing.assert_array_equal(
            stable_argsort(keys), np.argsort(keys, kind="stable")
        )
        for bad in (limit + 1, -limit - 2):
            keys[-1] = bad
            with pytest.raises(ValidationError, match="overflow"):
                stable_argsort(keys)
