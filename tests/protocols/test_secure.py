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


#: Seeded outputs of ``run_secure_protocol`` at ``rounds >= 1``, keyed
#: by case: ``(decrypted_payloads, delivered_by, messages_sent,
#: messages_received, peak_items)``, the last three per user.
FROZEN = {
    (8, 1, 1): (
        [1, 0, 3, 6, 7, 2, 4, 5],
        [0, 2, 4, 4, 4, 5, 6, 7],
        [2, 1, 2, 1, 4, 2, 2, 2],
        [1, 0, 1, 0, 3, 1, 1, 1],
        [1, 0, 1, 0, 3, 1, 1, 1],
    ),
    (12, 4, 2): (
        [7, 8, 11, 1, 5, 9, 4, 10, 0, 2, 6, 3],
        [1, 3, 3, 4, 4, 4, 5, 5, 6, 8, 8, 11],
        [4, 5, 4, 5, 5, 5, 8, 5, 7, 4, 4, 4],
        [3, 4, 3, 4, 4, 4, 7, 4, 6, 3, 3, 3],
        [2, 2, 2, 2, 3, 2, 3, 3, 3, 2, 3, 2],
    ),
    (20, 7, 3): (
        [18, 10, 17, 15, 5, 19, 11, 16, 13, 6,
         8, 4, 14, 12, 0, 9, 3, 1, 7, 2],
        [2, 3, 3, 4, 6, 7, 8, 8, 9, 11, 12, 12, 12, 13, 13, 15, 15, 16, 16, 17],
        [11, 7, 5, 11, 7, 7, 6, 10, 7, 9, 9, 7, 9, 10, 6, 10, 9, 13, 4, 3],
        [10, 6, 4, 10, 6, 6, 5, 9, 6, 8, 8, 6, 8, 9, 5, 9, 8, 12, 3, 2],
        [3, 2, 1, 2, 3, 3, 2, 2, 2, 3, 3, 4, 3, 5, 2, 3, 4, 8, 2, 2],
    ),
    "meters-1": (
        [6, 7, 8, 0, 1, 4, 13, 2, 11, 5, 10, 9, 14, 3, 15, 12],
        [1, 4, 4, 6, 6, 7, 7, 8, 8, 9, 9, 10, 11, 13, 14, 15],
        [1, 2, 1, 1, 3, 1, 3, 3, 3, 3, 2, 2, 1, 2, 2, 2],
        [0, 1, 0, 0, 2, 0, 2, 2, 2, 2, 1, 1, 0, 1, 1, 1],
        [0, 1, 0, 0, 2, 0, 2, 2, 2, 2, 1, 1, 0, 1, 1, 1],
    ),
    "meters-5": (
        [6, 8, 1, 15, 5, 13, 10, 9, 0, 3, 7, 14, 2, 11, 12, 4],
        [1, 2, 2, 2, 3, 4, 6, 6, 6, 9, 11, 12, 12, 13, 13, 15],
        [6, 8, 6, 6, 6, 3, 10, 4, 8, 4, 3, 7, 8, 9, 4, 4],
        [5, 7, 5, 5, 5, 2, 9, 3, 7, 3, 2, 6, 7, 8, 3, 3],
        [2, 3, 3, 4, 2, 2, 4, 2, 4, 2, 1, 3, 3, 4, 2, 1],
    ),
    "randomizer": (
        [0, 1, 1, 0, 1, 0, 1, 0, 0, 1],
        [1, 2, 2, 3, 4, 4, 4, 7, 7, 7],
        [3, 2, 3, 5, 8, 3, 2, 6, 3, 5],
        [2, 1, 2, 4, 7, 2, 1, 5, 2, 4],
        [1, 1, 2, 3, 4, 2, 1, 3, 2, 4],
    ),
}


def _assert_frozen(result, case):
    payloads, delivered_by, sent, received, peak = FROZEN[case]
    users = range(len(payloads))
    meters = [result.meters.meter(user) for user in users]
    assert result.decrypted_payloads == payloads
    assert result.delivered_by.tolist() == delivered_by
    assert [meter.messages_sent for meter in meters] == sent
    assert [meter.messages_received for meter in meters] == received
    assert [meter.peak_items for meter in meters] == peak
    assert all(meter.current_items == 0 for meter in meters)
    server = result.meters.meter(SERVER_ID)
    assert server.messages_received == len(payloads)


class TestBatchedParity:
    """The per-message driver reproduces the frozen seeded outputs of
    the trajectory-first batched driver it replaced, message for
    message and meter for meter.

    Only the throwaway encryption ephemerals differ between the two,
    and no output depends on them.
    """

    @pytest.mark.parametrize(
        ("num_nodes", "rounds", "seed"),
        [(8, 1, 1), (12, 4, 2), (20, 7, 3)],
    )
    def test_outputs_identical(self, num_nodes, rounds, seed):
        graph = random_regular_graph(4, num_nodes, rng=seed)
        result = run_secure_protocol(
            graph, rounds, list(range(num_nodes)), rng=seed
        )
        _assert_frozen(result, (num_nodes, rounds, seed))

    @pytest.mark.parametrize("rounds", [1, 5])
    def test_meters_identical(self, rounds):
        graph = random_regular_graph(4, 16, rng=7)
        result = run_secure_protocol(graph, rounds, list(range(16)), rng=11)
        _assert_frozen(result, f"meters-{rounds}")

    def test_randomizer_draws_in_same_order(self):
        graph = complete_graph(10)
        result = run_secure_protocol(
            graph, 3, [0] * 10, BinaryRandomizedResponse(0.6), rng=5
        )
        _assert_frozen(result, "randomizer")

    def test_batched_deterministic(self):
        graph = random_regular_graph(4, 12, rng=1)
        a = run_secure_protocol(graph, 3, list(range(12)), rng=4)
        b = run_secure_protocol(graph, 3, list(range(12)), rng=4)
        assert a.decrypted_payloads == b.decrypted_payloads
        np.testing.assert_array_equal(a.delivered_by, b.delivered_by)
