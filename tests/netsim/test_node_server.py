"""Unit tests for Node and Server entities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.netsim.metrics import EntityMeter
from repro.netsim.server import Server
from repro.testing.oracle import Node


@pytest.fixture
def node():
    return Node(3, np.array([1, 2, 5]), EntityMeter())


class TestNode:
    def test_initial_state(self, node):
        assert node.node_id == 3
        assert node.online
        assert node.held == []
        assert node.inbox == []

    def test_receive_goes_to_inbox(self, node):
        node.receive("payload")
        assert node.inbox == ["payload"]
        assert node.held == []
        assert node.meter.messages_received == 1

    def test_collect_inbox_moves_items(self, node):
        node.receive("a")
        node.receive("b")
        node.collect_inbox()
        assert node.held == ["a", "b"]
        assert node.inbox == []

    def test_take_all_empties_and_meters(self, node):
        node.receive("a")
        node.collect_inbox()
        items = node.take_all()
        assert items == ["a"]
        assert node.held == []
        assert node.meter.current_items == 0

    def test_sample_neighbor_uniform(self, node):
        rng = np.random.default_rng(0)
        samples = [node.sample_neighbor(rng) for _ in range(3000)]
        counts = np.bincount(samples, minlength=6)
        for neighbor in (1, 2, 5):
            assert counts[neighbor] == pytest.approx(1000, rel=0.15)
        assert counts[0] == counts[3] == counts[4] == 0

    def test_sample_neighbor_isolated_raises(self):
        from repro.exceptions import SimulationError

        isolated = Node(0, np.array([], dtype=np.int64), EntityMeter())
        with pytest.raises(SimulationError):
            isolated.sample_neighbor(np.random.default_rng(0))

    def test_repr(self, node):
        assert "id=3" in repr(node)
        assert "degree=3" in repr(node)


class TestServer:
    def test_store_length_mismatch_is_typed(self):
        server = Server(EntityMeter())
        with pytest.raises(ValueError) as caught:
            server.store([0, 1], ["x"])
        assert type(caught.value) is ValidationError
        assert server.reports == []
        assert server.meter.messages_received == 0

    def test_receive_meters_without_keeping(self):
        server = Server(EntityMeter())
        server.receive(3)
        assert len(server) == 0
        assert server.meter.messages_received == 3
        assert server.meter.peak_items == 3

    def test_delivery_order_preserved(self):
        server = Server(EntityMeter())
        server.store([2], ["x"])
        server.store([0], ["y"])
        assert server.reports == ["x", "y"]
        assert server.delivered_by == [2, 0]
        assert len(server) == 2

    def test_reports_returns_copy(self):
        server = Server(EntityMeter())
        server.store([0], ["a"])
        reports = server.reports
        reports.append("tampered")
        assert server.reports == ["a"]
