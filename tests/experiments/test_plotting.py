"""Tests for the ASCII chart renderer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments.plotting import Series, ascii_chart


@pytest.fixture
def simple_series():
    x = np.linspace(0, 10, 20)
    return [
        Series("linear", x, x),
        Series("quadratic", x, x**2 + 1),
    ]


class TestSeries:
    def test_valid(self):
        series = Series("s", [1, 2], [3, 4])
        assert series.x.shape == (2,)

    def test_rejects_mismatched(self):
        with pytest.raises(ValidationError):
            Series("s", [1, 2], [3])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Series("s", [], [])


class TestAsciiChart:
    def test_renders_all_parts(self, simple_series):
        chart = ascii_chart(
            simple_series, title="demo", x_label="t", y_label="eps"
        )
        assert "demo" in chart
        assert "legend:" in chart
        assert "* linear" in chart
        assert "o quadratic" in chart
        assert "eps" in chart

    def test_markers_present(self, simple_series):
        chart = ascii_chart(simple_series)
        assert "*" in chart
        assert "o" in chart

    def test_log_scale(self):
        x = np.linspace(0, 10, 20)
        positive = [Series("exp", x, np.exp(x))]
        chart = ascii_chart(positive, log_y=True)
        assert "(log)" in chart

    def test_log_rejects_non_positive(self):
        series = [Series("s", [0, 1], [0.0, 1.0])]
        with pytest.raises(ValidationError):
            ascii_chart(series, log_y=True)

    def test_rejects_empty_series_list(self):
        with pytest.raises(ValidationError):
            ascii_chart([])

    def test_rejects_tiny_canvas(self, simple_series):
        with pytest.raises(ValidationError):
            ascii_chart(simple_series, width=4, height=2)

    def test_dimensions(self, simple_series):
        chart = ascii_chart(simple_series, width=40, height=10)
        plot_lines = [line for line in chart.splitlines() if "|" in line]
        assert len(plot_lines) == 10
        for line in plot_lines:
            interior = line.split("|")[1]
            assert len(interior) == 40

    def test_constant_series(self):
        chart = ascii_chart([Series("flat", [0, 1, 2], [5, 5, 5])])
        assert "flat" in chart

    def test_monotone_series_renders_monotone(self):
        """Higher y must land on a higher row (or equal)."""
        x = np.arange(10)
        chart = ascii_chart(
            [Series("inc", x, x)], width=20, height=10
        )
        rows = chart.splitlines()
        plot = [line.split("|")[1] for line in rows if "|" in line]
        first_marker_row = next(
            i for i, line in enumerate(plot) if "*" in line
        )
        last_marker_row = max(
            i for i, line in enumerate(plot) if "*" in line
        )
        first_col = plot[first_marker_row].index("*")
        last_col = plot[last_marker_row].index("*")
        # Top rows come first: the increasing series' top-row marker is
        # at a larger x (column) than its bottom-row marker.
        assert first_col > last_col
