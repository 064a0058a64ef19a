"""Tests for Algorithm 2 (A_single) simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.spectral import stationary_distribution
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.netsim.message import SERVER_ID
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.single_protocol import (
    expected_empty_handed_stationary,
    run_single_protocol,
)


class TestSingleProtocol:
    def test_one_report_per_user(self, small_regular):
        result = run_single_protocol(small_regular, 10, rng=0)
        assert len(result.server_reports) == small_regular.num_nodes
        np.testing.assert_array_equal(
            result.delivered_by, np.arange(small_regular.num_nodes)
        )

    def test_dummy_count_matches_empty_holders(self, small_regular):
        result = run_single_protocol(small_regular, 10, rng=0)
        empty_holders = int((result.allocation == 0).sum())
        assert result.dummy_count == empty_holders

    def test_dummies_marked(self, small_regular):
        result = run_single_protocol(small_regular, 10, rng=0)
        dummy_reports = [r for r in result.server_reports if r.is_dummy]
        assert len(dummy_reports) == result.dummy_count

    def test_zero_rounds_everyone_has_own_report(self, small_regular):
        result = run_single_protocol(small_regular, 0, rng=0)
        assert result.dummy_count == 0
        for user, report in enumerate(result.server_reports):
            assert report.origin == user

    def test_real_reports_subset_of_population(self, small_regular):
        values = [f"value-{i}" for i in range(small_regular.num_nodes)]
        result = run_single_protocol(small_regular, 5, values=values, rng=0)
        real_payloads = {r.payload for r in result.real_reports}
        assert real_payloads.issubset(set(values))

    def test_dummy_factory_used(self, small_regular):
        result = run_single_protocol(
            small_regular,
            10,
            values=list(range(small_regular.num_nodes)),
            dummy_factory=lambda rng, count: np.full(count, "DUMMY"),
            rng=0,
        )
        dummies = [r for r in result.server_reports if r.is_dummy]
        assert dummies, "expected some dummies after mixing"
        assert all(r.payload == "DUMMY" for r in dummies)

    def test_default_dummy_uses_randomizer_of_zero(self, small_regular):
        result = run_single_protocol(
            small_regular,
            10,
            values=[1] * small_regular.num_nodes,
            randomizer=BinaryRandomizedResponse(5.0),
            rng=0,
        )
        dummies = [r for r in result.server_reports if r.is_dummy]
        # eps=5 RR of 0 is almost always 0.
        assert np.mean([r.payload for r in dummies]) < 0.3

    def test_faithful_engine(self, small_regular, on_oracle):
        with on_oracle():
            result = run_single_protocol(small_regular, 5, rng=0)
        assert len(result.server_reports) == small_regular.num_nodes
        assert result.meters is not None

    @pytest.mark.parametrize("oracle", [False, True], ids=["engine", "oracle"])
    def test_final_round_is_metered(self, small_regular, on_oracle, oracle):
        """Every user sends one report to the server: with no faults each
        user sends once per round plus once at the end, as under A_all."""
        num_users = small_regular.num_nodes
        with on_oracle(oracle):
            single = run_single_protocol(small_regular, 5, rng=0)
            every = run_all_protocol(small_regular, 5, rng=0)
        server = single.meters.meter(SERVER_ID)
        assert (server.messages_received, server.current_items) == (num_users, num_users)
        assert single.meters.total_messages_sent() == 6 * num_users
        assert single.meters.total_messages_sent() == every.meters.total_messages_sent()

    def test_rejects_unknown_engine(self, small_regular):
        with pytest.raises(ValidationError):
            run_single_protocol(small_regular, 1, engine="bogus", rng=0)

    def test_protocol_field(self, small_regular):
        assert run_single_protocol(small_regular, 1, rng=0).protocol == "single"


class TestExpectedEmptyHanded:
    def test_stationary_uniform_formula(self):
        """Uniform pi: E[#empty] = n (1 - 1/n)^n ~ n/e."""
        n = 1000
        pi = np.full(n, 1.0 / n)
        expected = expected_empty_handed_stationary(pi)
        assert expected == pytest.approx(n * (1 - 1 / n) ** n, rel=1e-9)
        assert expected == pytest.approx(n / np.e, rel=0.01)

    def test_skewed_pi_more_empty(self):
        n = 1000
        uniform = np.full(n, 1.0 / n)
        skewed = np.full(n, 0.5 / n)
        skewed[:10] += 0.05  # ten hubs absorb half the mass
        assert expected_empty_handed_stationary(
            skewed
        ) > expected_empty_handed_stationary(uniform)

    def test_matches_simulation(self, medium_regular):
        """The analytic dummy count predicts the simulated one."""
        pi = stationary_distribution(medium_regular)
        predicted = expected_empty_handed_stationary(pi)
        simulated = np.mean([
            run_single_protocol(medium_regular, 40, rng=seed).dummy_count
            for seed in range(10)
        ])
        assert simulated == pytest.approx(predicted, rel=0.1)
