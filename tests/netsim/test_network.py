"""Tests for the round-based network simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.netsim.faults import AdversarialDropout, IndependentDropout, NoFaults
from repro.netsim.metrics import EntityMeter, MeterBoard
from repro.netsim.network import RoundBasedNetwork


class TestEntityMeter:
    def test_send_receive_counting(self):
        meter = EntityMeter()
        meter.record_send(3)
        meter.record_receive()
        assert meter.messages_sent == 3
        assert meter.messages_received == 1
        assert meter.total_traffic == 4

    def test_peak_tracking(self):
        meter = EntityMeter()
        meter.record_store(5)
        meter.record_release(3)
        meter.record_store(2)
        assert meter.peak_items == 5
        assert meter.current_items == 4

    def test_release_floors_at_zero(self):
        meter = EntityMeter()
        meter.record_release(10)
        assert meter.current_items == 0


class TestMeterBoard:
    def test_meter_created_on_access(self):
        board = MeterBoard()
        assert 5 not in board
        board.meter(5).record_send()
        assert 5 in board
        assert len(board) == 1

    def test_aggregates(self):
        board = MeterBoard()
        board.meter(0).record_send(2)
        board.meter(1).record_send(4)
        board.meter(1).record_store(3)
        assert board.max_messages_sent() == 4
        assert board.mean_messages_sent() == 3.0
        assert board.total_messages_sent() == 6
        assert board.max_peak_items() == 3

    def test_empty_aggregates(self):
        board = MeterBoard()
        assert board.max_peak_items() == 0
        assert board.mean_messages_sent() == 0.0


class TestRoundBasedNetwork:
    def test_seed_and_count(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items({0: ["a"], 1: ["b", "c"]})
        np.testing.assert_array_equal(network.held_counts(), [1, 2, 0, 0])

    def test_exchange_conserves_items(self, small_regular):
        network = RoundBasedNetwork(small_regular, rng=0)
        network.seed_items({i: [i] for i in range(small_regular.num_nodes)})
        network.run_exchange(10)
        assert network.held_counts().sum() == small_regular.num_nodes

    def test_items_move_each_round(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items({0: ["token"]})
        network.run_exchange_round()
        counts = network.held_counts()
        assert counts[0] == 0
        assert counts.sum() == 1

    def test_round_index_advances(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.run_exchange(3)
        assert network.round_index == 3

    def test_negative_rounds_rejected(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        with pytest.raises(SimulationError):
            network.run_exchange(-1)

    def test_deliver_all_to_server(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items({i: [f"item-{i}"] for i in range(4)})
        network.run_exchange(2)
        network.deliver_to_server()
        assert len(network.server) == 4
        assert network.held_counts().sum() == 0

    def test_server_records_sender(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items({0: ["x"]})
        network.deliver_to_server()
        assert network.server.delivered_by == [0]
        assert network.server.reports == ["x"]

    def test_reports_by_sender(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items({1: ["a", "b"]})
        network.deliver_to_server()
        assert network.server.delivered_by == [1, 1]
        assert network.server.reports == ["a", "b"]


class TestFaultModels:
    def test_no_faults(self, rng):
        mask = NoFaults().offline_mask(10, 0, rng)
        assert not mask.any()

    def test_independent_dropout_rate(self, rng):
        model = IndependentDropout(0.3)
        masks = [model.offline_mask(1000, r, rng) for r in range(20)]
        rate = np.mean([m.mean() for m in masks])
        assert rate == pytest.approx(0.3, abs=0.02)

    def test_adversarial_dropout_fixed_set(self, rng):
        model = AdversarialDropout(np.array([1, 3]))
        mask = model.offline_mask(5, 0, rng)
        np.testing.assert_array_equal(mask, [False, True, False, True, False])

    def test_adversarial_ignores_out_of_range(self, rng):
        model = AdversarialDropout(np.array([99]))
        mask = model.offline_mask(5, 0, rng)
        assert not mask.any()

    def test_offline_users_hold_items(self, small_regular):
        """Fully offline network: nothing moves (lazy-walk limit)."""
        network = RoundBasedNetwork(
            small_regular, faults=IndependentDropout(1.0), rng=0
        )
        network.seed_items({i: [i] for i in range(small_regular.num_nodes)})
        network.run_exchange(5)
        counts = network.held_counts()
        np.testing.assert_array_equal(counts, np.ones(small_regular.num_nodes))

    def test_rejects_bad_probability(self):
        with pytest.raises(Exception):
            IndependentDropout(1.7)
