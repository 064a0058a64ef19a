"""Tests for spectral machinery: transition matrix, gap, mixing time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    AccountingError,
    GraphError,
    NotErgodicError,
    ValidationError,
)
from repro.graphs import spectral
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    random_regular_graph,
    watts_strogatz_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.spectral import (
    deflated_spectral_gap,
    mixing_time,
    normalized_adjacency,
    normalized_adjacency_eigenvalues,
    spectral_gap,
    spectral_summary,
    stationary_distribution,
    transition_matrix,
)


class TestTransitionMatrix:
    def test_row_stochastic(self):
        graph = random_regular_graph(4, 30, rng=0)
        matrix = transition_matrix(graph)
        np.testing.assert_allclose(
            np.asarray(matrix.sum(axis=1)).ravel(), 1.0
        )

    def test_uniform_over_neighbors(self):
        graph = Graph(3, [(0, 1), (0, 2)])
        matrix = transition_matrix(graph).toarray()
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[0, 2] == pytest.approx(0.5)
        assert matrix[1, 0] == pytest.approx(1.0)

    def test_rejects_isolated_node(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            transition_matrix(graph)


class TestStationaryDistribution:
    def test_proportional_to_degree(self):
        graph = Graph(3, [(0, 1), (0, 2)])
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(pi, [0.5, 0.25, 0.25])

    def test_uniform_for_regular(self):
        graph = random_regular_graph(4, 20, rng=0)
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(pi, 1.0 / 20)

    def test_is_fixed_point(self):
        """pi = M^T pi (Definition 4.1)."""
        graph = random_regular_graph(6, 40, rng=1)
        matrix = transition_matrix(graph)
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(matrix.T @ pi, pi, atol=1e-12)

    def test_fixed_point_irregular(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        matrix = transition_matrix(graph)
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(matrix.T @ pi, pi, atol=1e-12)

    def test_rejects_edgeless(self):
        with pytest.raises(GraphError):
            stationary_distribution(Graph(2, []))


class TestEigenvalues:
    def test_leading_eigenvalue_is_one(self):
        graph = random_regular_graph(4, 30, rng=0)
        eigenvalues = normalized_adjacency_eigenvalues(graph)
        assert eigenvalues[0] == pytest.approx(1.0, abs=1e-9)

    def test_descending_order(self):
        graph = random_regular_graph(4, 30, rng=0)
        eigenvalues = normalized_adjacency_eigenvalues(graph)
        assert np.all(np.diff(eigenvalues) <= 1e-12)

    def test_bipartite_has_minus_one(self):
        eigenvalues = normalized_adjacency_eigenvalues(cycle_graph(6))
        assert eigenvalues[-1] == pytest.approx(-1.0, abs=1e-9)

    def test_complete_graph_spectrum(self):
        # K_n normalized adjacency: 1 with multiplicity 1, -1/(n-1) else.
        eigenvalues = normalized_adjacency_eigenvalues(complete_graph(5))
        assert eigenvalues[0] == pytest.approx(1.0)
        np.testing.assert_allclose(eigenvalues[1:], -0.25, atol=1e-9)

    def test_sparse_path_on_large_graph(self):
        """Above the dense limit the spectrum oracle refuses, pointing at
        ``spectral_gap``, whose deflated solve matches a dense one."""
        graph = random_regular_graph(6, 2000, rng=0)
        with pytest.raises(ValidationError, match="spectral_gap"):
            normalized_adjacency_eigenvalues(graph)
        bracket = deflated_spectral_gap(graph)
        assert spectral_gap(graph) == bracket.gap
        _assert_brackets_dense_gap(bracket, graph)


class TestSpectralGap:
    def test_positive_for_ergodic(self):
        assert spectral_gap(cycle_graph(5)) > 0.0

    def test_zero_for_bipartite_without_validation(self):
        assert spectral_gap(cycle_graph(6), validate=False) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_validation_rejects_bipartite(self):
        with pytest.raises(NotErgodicError):
            spectral_gap(cycle_graph(6))

    def test_complete_graph_gap(self):
        # gap = min(1 - (-1/(n-1)), 1 - 1/(n-1)) = 1 - 1/(n-1).
        gap = spectral_gap(complete_graph(5))
        assert gap == pytest.approx(0.75, abs=1e-9)

    def test_larger_degree_larger_gap(self):
        g4 = spectral_gap(random_regular_graph(4, 200, rng=0))
        g16 = spectral_gap(random_regular_graph(16, 200, rng=0))
        assert g16 > g4


def _dense_gap(graph):
    eigenvalues = np.linalg.eigvalsh(normalized_adjacency(graph).toarray())
    return max(min(1.0 - eigenvalues[-2], 1.0 - abs(eigenvalues[0])), 0.0)


def _assert_brackets_dense_gap(bracket, graph):
    """The certified claim: ``alpha_lo`` is at most the dense ``alpha``,
    and the Ritz ``alpha`` is within the residual of it.  The 1e-12
    slack absorbs rounding: on ``complete`` the two differ by ~1e-15
    with a residual of ~6e-17."""
    dense = _dense_gap(graph)
    assert bracket.gap <= dense + 1e-12
    assert abs(bracket.ritz_gap - dense) <= bracket.residual + 1e-12
    assert bracket.gap == max(bracket.ritz_gap - bracket.residual, 0.0)


@pytest.fixture
def solve_tolerances(monkeypatch):
    """Record the tolerance of every Lanczos solve."""
    tolerances = []
    eigsh = spectral.spla.eigsh

    def recording(*args, **kwargs):
        tolerances.append(kwargs["tol"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", recording)
    return tolerances


class TestDeflatedSolve:
    """The sparse path: a loose Lanczos solve with ``sqrt(pi)`` deflated,
    certified by its residual."""

    @pytest.mark.parametrize(
        "graph",
        [
            complete_graph(400),
            cycle_graph(301),
            random_regular_graph(3, 600, rng=0),
            barabasi_albert_graph(500, 2, rng=0),
            watts_strogatz_graph(500, 4, 0.2, rng=0),
            grid_graph(15, 13, periodic=True),
        ],
        ids=["complete", "odd-cycle", "3-regular", "ba", "ws", "odd-torus"],
    )
    def test_matches_dense_oracle(self, graph):
        _assert_brackets_dense_gap(deflated_spectral_gap(graph), graph)

    def test_matches_two_sided_lanczos(self):
        """Past the dense limit the one deflated solve still finds
        ``max(a_2, |a_n|)``: its bracket holds the dense ``alpha``."""
        graph = barabasi_albert_graph(2000, 3, rng=0)
        _assert_brackets_dense_gap(deflated_spectral_gap(graph), graph)

    def test_expander_needs_one_loose_solve(self, solve_tolerances):
        bracket = deflated_spectral_gap(random_regular_graph(6, 2000, rng=0))
        assert solve_tolerances == [spectral._LANCZOS_TOLS[0]]
        assert bracket.residual <= bracket.gap / 10

    def test_slow_mixing_graph_retries_tight(self, solve_tolerances):
        """On the odd cycle (alpha ~ 5e-5) the loose residual swamps the
        gap, so the solve restarts once at the tight tolerance."""
        graph = cycle_graph(301)
        bracket = deflated_spectral_gap(graph)
        assert solve_tolerances == list(spectral._LANCZOS_TOLS)
        assert bracket.residual <= bracket.gap / 10
        _assert_brackets_dense_gap(bracket, graph)

    def test_residual_above_tenth_of_gap_after_retry_raises(self, monkeypatch):
        """A Ritz pair whose residual stays above ``alpha_lo / 10`` at the
        tight tolerance is refused, not priced as a vacuous bound."""
        calls = []

        def poor_ritz_pair(*args, **kwargs):
            calls.append(kwargs["tol"])
            vector = np.ones((args[0].shape[0], 1))
            vector[::2] = -1.0
            return np.array([0.5]), vector

        monkeypatch.setattr(spectral.spla, "eigsh", poor_ritz_pair)
        with pytest.raises(AccountingError, match="residual"):
            spectral_gap(random_regular_graph(6, 2000, rng=0))
        assert calls == list(spectral._LANCZOS_TOLS)

    def test_repeat_summaries_are_identical(self):
        graph = random_regular_graph(6, 2000, rng=3)
        assert spectral_summary(graph) == spectral_summary(graph)

    def test_leaves_global_rng_untouched(self):
        graph = random_regular_graph(6, 2000, rng=4)
        before = np.random.get_state()
        spectral_gap(graph)
        after = np.random.get_state()
        assert before[0] == after[0]
        np.testing.assert_array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_no_convergence_is_typed(self, stalled_lanczos):
        with pytest.raises(AccountingError, match="Lanczos solve failed"):
            spectral_gap(random_regular_graph(6, 2000, rng=0))

    def test_non_finite_eigenvalue_is_typed(self, monkeypatch):
        monkeypatch.setattr(
            spectral.spla,
            "eigsh",
            lambda operator, **kwargs: (
                np.array([np.nan]), np.ones((operator.shape[0], 1))
            ),
        )
        with pytest.raises(AccountingError, match="non-finite"):
            spectral_gap(random_regular_graph(6, 2000, rng=0))


class TestMixingTime:
    def test_formula(self):
        graph = random_regular_graph(8, 100, rng=0)
        gap = spectral_gap(graph)
        expected = max(1, round(np.log(100) / gap))
        assert mixing_time(graph) == expected

    def test_gap_shortcut(self):
        graph = random_regular_graph(8, 100, rng=0)
        assert mixing_time(graph, gap=0.5, validate=False) == round(
            np.log(100) / 0.5
        )

    def test_zero_gap_raises(self):
        graph = cycle_graph(5)
        with pytest.raises(GraphError):
            mixing_time(graph, gap=0.0, validate=False)


class TestSpectralSummary:
    def test_fields(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        assert summary.num_nodes == 64
        assert summary.irregularity_gamma == pytest.approx(1.0)
        assert summary.stationary_collision == pytest.approx(1.0 / 64)
        assert 0 < summary.spectral_gap < 1

    def test_dense_gap_needs_no_certificate(self):
        summary = spectral_summary(random_regular_graph(4, 64, rng=0))
        assert summary.ritz_gap == summary.spectral_gap
        assert summary.gap_residual == 0.0

    def test_sparse_summary_prices_the_certified_gap(self):
        graph = random_regular_graph(6, 2000, rng=3)
        summary = spectral_summary(graph)
        bracket = deflated_spectral_gap(graph)
        assert summary.spectral_gap == bracket.gap < summary.ritz_gap
        assert summary.ritz_gap == bracket.ritz_gap
        assert summary.gap_residual == bracket.residual > 0.0
        assert summary.mixing_time == mixing_time(graph, gap=bracket.gap)

    def test_sum_squared_bound_monotone(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        values = [summary.sum_squared_bound(t) for t in range(0, 30, 3)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_sum_squared_bound_capped_at_one(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        assert summary.sum_squared_bound(0) == 1.0

    def test_sum_squared_bound_limit(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        assert summary.sum_squared_bound(10_000) == pytest.approx(
            summary.stationary_collision
        )

    def test_negative_steps_rejected(self):
        graph = random_regular_graph(4, 64, rng=0)
        with pytest.raises(ValidationError, match="steps"):
            spectral_summary(graph).sum_squared_bound(-1)

    def test_rejects_non_ergodic(self):
        with pytest.raises(NotErgodicError):
            spectral_summary(cycle_graph(4))


class TestNormalizedAdjacency:
    def test_symmetric(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        matrix = normalized_adjacency(graph).toarray()
        np.testing.assert_allclose(matrix, matrix.T)

    def test_similar_to_transition(self):
        """N = D^{1/2} M D^{-1/2}: same spectrum as M."""
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        m_eigs = np.sort(np.linalg.eigvals(transition_matrix(graph).toarray()).real)
        n_eigs = np.sort(np.linalg.eigvalsh(normalized_adjacency(graph).toarray()))
        np.testing.assert_allclose(m_eigs, n_eigs, atol=1e-9)
