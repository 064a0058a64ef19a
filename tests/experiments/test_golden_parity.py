"""Golden parity: migrated experiments reproduce pre-migration numbers.

``golden_pre_migration.json`` holds small-scale outputs captured from
the experiment modules *before* ISSUE 5 ported them onto
scenarios/sweeps (same seeds, same parameters).  These tests pin the
scenario-backed implementations to those numbers:

* closed-form quantities (stationary limits, published-(n, Gamma)
  curves, fitted exponents, meter counters) must match exactly or to
  float-noise tolerance;
* spectral quantities carry ``rtol=1e-9`` — the goldens came from the
  earlier two-sided (largest/smallest) ARPACK solve, which today's
  single deflated solve reproduces to ~1e-13 relative, not bit for bit
  (repeat solves are now bit-identical: the start vector is pinned);
* simulation statistics whose RNG consumption order legitimately
  changed (Figure 9's squared error: the scenario seed contract draws
  values/protocol streams independently, where the old module threaded
  one sequential generator) are pinned to coarse statistical bands.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_pre_migration.json").read_text()
)

#: Tolerance for spectral-gap-dependent quantities (the goldens predate
#: the deflated solve; see module docstring).
SPECTRAL_RTOL = 1e-9


class TestFigure4:
    def test_matches_pre_migration_curve(self):
        from repro.experiments.figure4 import run_figure4

        golden = GOLDEN["figure4"]
        series = run_figure4(datasets=("twitch",), max_steps=20, num_points=10)[0]
        assert series.dataset == golden["dataset"]
        assert series.steps.tolist() == golden["steps"]
        assert series.mixing_time == golden["mixing_time"]
        np.testing.assert_allclose(
            series.epsilon, golden["epsilon"], rtol=SPECTRAL_RTOL
        )
        # The asymptote is the exact stationary collision: deterministic.
        assert series.asymptotic_epsilon == golden["asymptotic_epsilon"]
        assert series.converged_step == golden["converged_step"]


class TestFigure5:
    def test_matches_pre_migration_curves(self):
        from repro.experiments.figure5 import run_figure5

        series = run_figure5(degrees=(4, 8), num_nodes=256, max_steps=10)
        for got, want in zip(series, GOLDEN["figure5"]):
            assert got.degree == want["degree"]
            assert got.mixing_time == want["mixing_time"]
            # Exact walk tracking is deterministic given the graph.
            np.testing.assert_allclose(
                got.epsilon, want["epsilon"], rtol=SPECTRAL_RTOL
            )


class TestFigure6:
    def test_published_path_bit_identical(self):
        from repro.experiments.figure6 import run_figure6

        curves = run_figure6(
            eps0_values=(0.5, 1.0), datasets=("google", "twitch")
        )
        for got, want in zip(curves, GOLDEN["figure6"]):
            assert got.dataset == want["dataset"]
            assert got.n == want["n"]
            assert got.gamma == pytest.approx(want["gamma"], rel=1e-12)
            assert got.epsilon.tolist() == want["epsilon"]


class TestFigure7:
    def test_bit_identical_curves_and_crossover(self):
        from repro.experiments.figure7 import run_figure7

        golden = GOLDEN["figure7"][0]
        comparison = run_figure7(
            eps0_values=np.linspace(0.5, 4.0, 8).tolist(), datasets=("twitch",)
        )[0]
        assert comparison.n == golden["n"]
        assert comparison.gamma == pytest.approx(golden["gamma"], rel=1e-12)
        assert comparison.epsilon_all.tolist() == golden["epsilon_all"]
        assert comparison.epsilon_single.tolist() == golden["epsilon_single"]
        assert comparison.crossover_eps0() == golden["crossover"]


class TestFigure8:
    def test_bit_identical_grid(self):
        from repro.experiments.figure8 import run_figure8

        curves = run_figure8(
            eps0_values=(0.5, 1.0),
            gammas=(1.0, 10.0),
            n_values=(10_000,),
            protocols=("all", "single"),
        )
        assert len(curves) == len(GOLDEN["figure8"])
        for got, want in zip(curves, GOLDEN["figure8"]):
            assert (got.gamma, got.n, got.protocol) == (
                want["gamma"], want["n"], want["protocol"]
            )
            assert got.epsilon.tolist() == want["epsilon"]


class TestFigure9:
    def test_central_epsilons_exact_errors_in_band(self):
        from repro.experiments.figure9 import run_figure9

        points = run_figure9(
            eps0_values=(1.0, 3.0),
            dataset="twitch",
            dimension=16,
            scale=0.4,
            repeats=2,
        )
        for got, want in zip(points, GOLDEN["figure9"]):
            assert (got.protocol, got.epsilon0) == (
                want["protocol"], want["epsilon0"]
            )
            # Theorem evaluation on the identical pinned-seed stand-in.
            assert got.central_epsilon == pytest.approx(
                want["central_epsilon"], rel=SPECTRAL_RTOL
            )
            # Simulation statistics: the scenario seed contract draws
            # values/protocol streams independently, so only the law is
            # preserved — pin to a coarse band around the recorded
            # value (errors here span decades across eps0).
            assert 0.2 * want["squared_error"] <= got.squared_error <= (
                5.0 * want["squared_error"]
            )
            if want["dummy_count"] == 0:
                assert got.dummy_count == 0
            else:
                assert got.dummy_count == pytest.approx(
                    want["dummy_count"], rel=0.05
                )


class TestTable1:
    def test_fits_match_pre_migration(self):
        from repro.experiments.table1 import run_table1

        rows = run_table1(
            n_values=(10_000, 100_000), eps0_values=(1.5, 2.0, 2.5)
        )
        for got, want in zip(rows, GOLDEN["table1"]):
            assert got.mechanism == want["mechanism"]
            assert got.fitted_eps0_exponent == pytest.approx(
                want["fitted_eps0_exponent"], rel=1e-12, abs=1e-15
            )
            assert got.fitted_n_exponent == pytest.approx(
                want["fitted_n_exponent"], rel=1e-12, abs=1e-15
            )
            assert got.epsilon_at_reference == pytest.approx(
                want["epsilon_at_reference"], rel=1e-12
            )


class TestTable3:
    def test_counters_bit_identical(self):
        from repro.experiments.table3 import measure_complexity

        points = measure_complexity((64, 128))
        for got, want in zip(points, GOLDEN["table3"]["points"]):
            assert (
                got.mechanism,
                got.n,
                got.entity_peak_memory,
                got.max_user_traffic,
            ) == (
                want["mechanism"],
                want["n"],
                want["entity_peak_memory"],
                want["max_user_traffic"],
            )


class TestTable4:
    def test_stand_in_stats_match(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.table4 import run_table4

        golden = GOLDEN["table4"][0]
        row = run_table4(
            names=("twitch",), config=ExperimentConfig(dataset_scale=0.3)
        )[0]
        assert (row.name, row.category) == (golden["name"], golden["category"])
        assert row.published_n == golden["published_n"]
        assert row.achieved_n == golden["achieved_n"]
        assert row.published_gamma == golden["published_gamma"]
        assert row.scale == golden["scale"]
        assert row.mixing_time == golden["mixing_time"]
        assert row.achieved_gamma == pytest.approx(
            golden["achieved_gamma"], rel=SPECTRAL_RTOL
        )
        assert row.spectral_gap == pytest.approx(
            golden["spectral_gap"], rel=SPECTRAL_RTOL
        )
