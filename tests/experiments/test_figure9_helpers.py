"""Tests for Figure 9's small-scale runs."""

from __future__ import annotations

from repro.experiments.figure9 import run_figure9


class TestSmallScaleRun:
    def test_tiny_run_structure(self):
        points = run_figure9(
            eps0_values=(2.0,), scale=0.25, dimension=20, repeats=1
        )
        assert {p.protocol for p in points} == {"all", "single"}
        for point in points:
            assert point.squared_error >= 0.0
            assert point.central_epsilon > 0.0
        single = next(p for p in points if p.protocol == "single")
        assert single.dummy_count > 0
