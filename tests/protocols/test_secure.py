"""Tests for the encrypted (Section 4.4) protocol realization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ValidationError
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.graphs.graph import Graph
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.netsim.message import SERVER_ID
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.secure import run_secure_protocol


class TestSecureProtocol:
    def test_all_reports_decrypted(self):
        graph = random_regular_graph(4, 20, rng=0)
        values = list(range(20))
        result = run_secure_protocol(graph, 4, values, rng=0)
        assert result.num_reports == 20
        assert sorted(result.decrypted_payloads) == values

    def test_randomizer_applied(self):
        graph = complete_graph(12)
        result = run_secure_protocol(
            graph, 3, [0] * 12, BinaryRandomizedResponse(0.5), rng=0
        )
        assert set(result.decrypted_payloads).issubset({0, 1})

    def test_payload_types_roundtrip(self):
        graph = complete_graph(6)
        values = [1, 2.5, "text", [1, 2], {"k": 1}, None]
        result = run_secure_protocol(graph, 2, values, rng=0)
        assert len(result.decrypted_payloads) == 6

    def test_meters_track_traffic(self):
        graph = random_regular_graph(4, 16, rng=0)
        result = run_secure_protocol(graph, 5, list(range(16)), rng=0)
        sent = [result.meters.meter(u).messages_sent for u in range(16)]
        # ~1 per round per user on average (token conservation).
        assert np.mean(sent) == pytest.approx(5.0, rel=0.5)

    def test_delivered_by_valid_users(self):
        graph = random_regular_graph(4, 16, rng=0)
        result = run_secure_protocol(graph, 3, list(range(16)), rng=0)
        assert result.delivered_by.min() >= 0
        assert result.delivered_by.max() < 16

    def test_value_count_mismatch(self):
        graph = complete_graph(5)
        with pytest.raises(ProtocolError):
            run_secure_protocol(graph, 2, [1, 2], rng=0)

    def test_deterministic(self):
        graph = complete_graph(8)
        a = run_secure_protocol(graph, 3, list(range(8)), rng=9)
        b = run_secure_protocol(graph, 3, list(range(8)), rng=9)
        assert a.decrypted_payloads == b.decrypted_payloads
        np.testing.assert_array_equal(a.delivered_by, b.delivered_by)


    def test_no_neighbor_raises(self):
        graph = Graph(3, [(0, 1)])  # user 2 cannot relay
        with pytest.raises(ProtocolError):
            run_secure_protocol(graph, 2, [1, 2, 3], rng=0)

    @pytest.mark.parametrize("rounds", [-1, -3])
    def test_negative_rounds_rejected(self, rounds):
        graph = random_regular_graph(4, 8, rng=0)
        with pytest.raises(ValidationError, match="rounds"):
            run_secure_protocol(graph, rounds, list(range(8)), rng=0)

    def test_zero_rounds_delivers_from_origin(self):
        """``t = 0`` makes no hop: each user seals and delivers her own
        report, exactly where ``A_all`` delivers at ``t = 0``."""
        graph = random_regular_graph(4, 8, rng=0)
        values = list(range(8))
        result = run_secure_protocol(graph, 0, values, rng=0)
        assert result.rounds == 0
        np.testing.assert_array_equal(result.delivered_by, np.arange(8))
        np.testing.assert_array_equal(
            result.delivered_by,
            run_all_protocol(graph, 0, values=values, rng=0).delivered_by,
        )
        assert result.decrypted_payloads == values
        assert [
            result.meters.meter(user).messages_sent for user in range(8)
        ] == [1] * 8
        assert result.meters.meter(SERVER_ID).messages_received == 8


class TestBatchedParity:
    """Seeded runs repeat exactly; ``tests/vectors`` pins their outputs."""

    def test_batched_deterministic(self):
        graph = random_regular_graph(4, 12, rng=1)
        a = run_secure_protocol(graph, 3, list(range(12)), rng=4)
        b = run_secure_protocol(graph, 3, list(range(12)), rng=4)
        assert a.decrypted_payloads == b.decrypted_payloads
        np.testing.assert_array_equal(a.delivered_by, b.delivered_by)
