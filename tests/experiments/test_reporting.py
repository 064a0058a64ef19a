"""Tests for the reporting / curve-fitting helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ValidationError
from repro.experiments.reporting import (
    fit_exponential_rate,
    fit_power_law,
    format_table,
)


class TestFormatTable:
    def test_basic_rendering(self):
        table = format_table(["a", "b"], [(1, 2), (3, 4)])
        lines = table.splitlines()
        assert "| a" in lines[1]
        assert len(lines) == 6  # border, header, border, 2 rows, border

    def test_width_adapts(self):
        table = format_table(["x"], [("a-very-long-cell",)])
        assert "a-very-long-cell" in table

    def test_float_formatting(self):
        table = format_table(["v"], [(0.123456,), (1e-9,), (1e7,)])
        assert "0.1235" in table
        assert "1.000e-09" in table

    def test_zero_renders_as_zero(self):
        assert "| 0 " in format_table(["v"], [(0.0,)])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError):
            format_table(["a", "b"], [(1,)])


class TestFitPowerLaw:
    def test_exact_fit(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x**-0.5
        a, b = fit_power_law(x, y)
        assert a == pytest.approx(3.0)
        assert b == pytest.approx(-0.5)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            fit_power_law([1.0, 2.0], [1.0, -1.0])

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            fit_power_law([1.0], [1.0])

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=30)
    def test_recovers_parameters(self, a, b):
        x = np.geomspace(1.0, 100.0, 10)
        y = a * x**b
        a_hat, b_hat = fit_power_law(x, y)
        assert a_hat == pytest.approx(a, rel=1e-6)
        assert b_hat == pytest.approx(b, abs=1e-6)


class TestFitExponentialRate:
    def test_exact_fit(self):
        x = np.linspace(0.0, 3.0, 10)
        y = 2.0 * np.exp(1.5 * x)
        a, c = fit_exponential_rate(x, y)
        assert a == pytest.approx(2.0)
        assert c == pytest.approx(1.5)

    def test_rejects_non_positive_y(self):
        with pytest.raises(ValidationError):
            fit_exponential_rate([0.0, 1.0], [1.0, 0.0])


class TestSweepTable:
    def _sweep(self):
        from repro.scenario import GraphSpec, Scenario, sweep

        base = Scenario(
            graph=GraphSpec.of("k_regular", degree=4, num_nodes=64),
            epsilon0=1.0,
            seed=0,
        )
        return sweep(base, axis={"rounds": [2, 4]}, mode="bound")

    def test_renders_axes_and_epsilons(self):
        from repro.experiments.reporting import sweep_table

        result = self._sweep()
        table = sweep_table(result)
        assert "rounds" in table and "central eps" in table
        for point in result:
            assert str(round(point.epsilon, 4)) in table

    def test_custom_value_header(self):
        from repro.experiments.reporting import sweep_table

        table = sweep_table(self._sweep(), value_header="eps_hat")
        assert "eps_hat" in table
