"""Property-based tests of protocol invariants (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import random_regular_graph
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.single_protocol import run_single_protocol


@st.composite
def protocol_setup(draw):
    """A small random ergodic graph plus a round count and seed."""
    degree = draw(st.sampled_from([4, 6, 8]))
    # Keep degree * n even and n > degree.
    num_nodes = draw(st.sampled_from([20, 30, 40, 60]))
    rounds = draw(st.integers(min_value=0, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    graph = random_regular_graph(degree, num_nodes, rng=seed % 1000)
    return graph, rounds, seed


class TestAllProtocolInvariants:
    @given(protocol_setup())
    @settings(max_examples=30, deadline=None)
    def test_conservation(self, setup):
        """Every report reaches the server, exactly once."""
        graph, rounds, seed = setup
        result = run_all_protocol(graph, rounds, rng=seed)
        assert len(result.server_reports) == graph.num_nodes
        origins = sorted(r.origin for r in result.server_reports)
        assert origins == list(range(graph.num_nodes))

    @given(protocol_setup())
    @settings(max_examples=30, deadline=None)
    def test_allocation_consistency(self, setup):
        """Allocation vector sums to n and matches delivered_by."""
        graph, rounds, seed = setup
        result = run_all_protocol(graph, rounds, rng=seed)
        assert result.allocation.sum() == graph.num_nodes
        counted = np.bincount(result.delivered_by, minlength=graph.num_nodes)
        np.testing.assert_array_equal(counted, result.allocation)

    @given(protocol_setup())
    @settings(max_examples=20, deadline=None)
    def test_engines_agree_on_counts(self, on_oracle, setup):
        """The engine and the per-message oracle both conserve reports."""
        graph, rounds, seed = setup
        fast = run_all_protocol(graph, rounds, rng=seed)
        with on_oracle():
            faithful = run_all_protocol(graph, rounds, rng=seed)
        assert len(fast.server_reports) == len(faithful.server_reports)
        assert fast.allocation.sum() == faithful.allocation.sum()


class TestSingleProtocolInvariants:
    @given(protocol_setup())
    @settings(max_examples=30, deadline=None)
    def test_exactly_one_report_per_user(self, setup):
        graph, rounds, seed = setup
        result = run_single_protocol(graph, rounds, rng=seed)
        assert len(result.server_reports) == graph.num_nodes
        np.testing.assert_array_equal(
            result.delivered_by, np.arange(graph.num_nodes)
        )

    @given(protocol_setup())
    @settings(max_examples=30, deadline=None)
    def test_dummy_count_consistency(self, setup):
        """Dummies fill exactly the empty-handed users."""
        graph, rounds, seed = setup
        result = run_single_protocol(graph, rounds, rng=seed)
        empty = int((result.allocation == 0).sum())
        assert result.dummy_count == empty
        marked = sum(1 for r in result.server_reports if r.is_dummy)
        assert marked == result.dummy_count

    @given(protocol_setup())
    @settings(max_examples=30, deadline=None)
    def test_real_reports_are_distinct_originals(self, setup):
        """A report is sent by at most one user (no duplication)."""
        graph, rounds, seed = setup
        result = run_single_protocol(graph, rounds, rng=seed)
        real_origins = [r.origin for r in result.real_reports]
        assert len(real_origins) == len(set(real_origins))
