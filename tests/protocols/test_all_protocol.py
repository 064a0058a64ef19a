"""Tests for Algorithm 1 (A_all) simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.generators import complete_graph
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.netsim.faults import IndependentDropout
from repro.protocols.all_protocol import run_all_protocol


class TestFastEngine:
    def test_conservation(self, small_regular):
        result = run_all_protocol(small_regular, 10, rng=0)
        assert result.check_conservation()
        assert len(result.server_reports) == small_regular.num_nodes

    def test_allocation_sums_to_n(self, small_regular):
        result = run_all_protocol(small_regular, 10, rng=0)
        assert result.allocation.sum() == small_regular.num_nodes

    def test_origins_are_permutation_of_users(self, small_regular):
        result = run_all_protocol(small_regular, 10, rng=0)
        origins = sorted(r.origin for r in result.server_reports)
        assert origins == list(range(small_regular.num_nodes))

    def test_zero_rounds_no_shuffle(self, small_regular):
        result = run_all_protocol(small_regular, 0, rng=0)
        for report, holder in zip(result.server_reports, result.delivered_by):
            assert report.origin == holder

    def test_values_carried(self, small_regular):
        values = [f"value-{i}" for i in range(small_regular.num_nodes)]
        result = run_all_protocol(small_regular, 5, values=values, rng=0)
        payloads = sorted(r.payload for r in result.server_reports)
        assert payloads == sorted(values)

    def test_randomizer_applied(self, small_regular):
        n = small_regular.num_nodes
        values = [0] * n
        result = run_all_protocol(
            small_regular,
            3,
            values=values,
            randomizer=BinaryRandomizedResponse(1.0),
            rng=0,
        )
        payloads = [r.payload for r in result.server_reports]
        # eps=1 flips ~27% of zeros to ones.
        assert 0 < sum(payloads) < n

    def test_deterministic(self, small_regular):
        a = run_all_protocol(small_regular, 5, rng=3)
        b = run_all_protocol(small_regular, 5, rng=3)
        np.testing.assert_array_equal(a.allocation, b.allocation)

    def test_value_count_mismatch(self, small_regular):
        with pytest.raises(ValidationError):
            run_all_protocol(small_regular, 1, values=[1, 2], rng=0)

    def test_rejects_negative_rounds(self, small_regular):
        with pytest.raises(ValidationError):
            run_all_protocol(small_regular, -1, rng=0)

    def test_rejects_unknown_engine(self, small_regular):
        with pytest.raises(ValidationError):
            run_all_protocol(small_regular, 1, engine="quantum", rng=0)

    def test_delivered_by_matches_allocation(self, small_regular):
        result = run_all_protocol(small_regular, 8, rng=1)
        counted = np.bincount(
            result.delivered_by, minlength=small_regular.num_nodes
        )
        np.testing.assert_array_equal(counted, result.allocation)


class TestFaithfulEngine:
    """The protocol on the per-message oracle."""

    def test_conservation(self, small_regular, on_oracle):
        with on_oracle():
            result = run_all_protocol(small_regular, 5, rng=0)
        assert result.check_conservation()

    def test_meters_populated(self, small_regular, on_oracle):
        with on_oracle():
            result = run_all_protocol(small_regular, 5, rng=0)
        assert result.meters is not None
        sent = [
            result.meters.meter(u).messages_sent
            for u in range(small_regular.num_nodes)
        ]
        # Every user relays roughly once per round plus final delivery.
        assert np.mean(sent) == pytest.approx(6.0, rel=0.35)

    def test_agrees_with_fast_statistically(self, on_oracle):
        """Both exchanges should produce the same allocation distribution."""
        graph = complete_graph(30)
        fast_max = np.mean([
            run_all_protocol(graph, 4, rng=seed).allocation.max()
            for seed in range(20)
        ])
        with on_oracle():
            faithful_max = np.mean([
                run_all_protocol(graph, 4, rng=seed).allocation.max()
                for seed in range(20)
            ])
        assert fast_max == pytest.approx(faithful_max, rel=0.35)

    def test_dropout_faults(self, small_regular, on_oracle):
        with on_oracle():
            result = run_all_protocol(
                small_regular, 5, faults=IndependentDropout(0.5), rng=0
            )
        assert result.check_conservation()


class TestAdversaryView:
    def test_view_shape(self, small_regular):
        result = run_all_protocol(small_regular, 5, rng=0)
        view = result.adversary_view()
        assert view.num_users == small_regular.num_nodes
        assert view.final_holder.shape == view.origin.shape

    def test_baseline_guess_perfect_at_zero_rounds(self, small_regular):
        view = run_all_protocol(small_regular, 0, rng=0).adversary_view()
        assert view.linkage_accuracy(view.baseline_guess()) == 1.0

    def test_linkage_collapses_after_mixing(self, medium_regular):
        view = run_all_protocol(medium_regular, 40, rng=0).adversary_view()
        accuracy = view.linkage_accuracy(view.baseline_guess())
        assert accuracy < 0.05

    def test_posterior_guess_interface(self, k4):
        result = run_all_protocol(k4, 2, rng=0)
        view = result.adversary_view()
        from repro.graphs.walks import position_distribution

        matrix = np.stack(
            [position_distribution(k4, i, 2) for i in range(4)]
        )
        guess = view.posterior_guess(matrix)
        assert guess.shape == view.origin.shape

    def test_posterior_rejects_bad_shape(self, k4):
        view = run_all_protocol(k4, 1, rng=0).adversary_view()
        with pytest.raises(ValueError) as caught:
            view.posterior_guess(np.ones((2, 2)) / 2)
        assert type(caught.value) is ValidationError
