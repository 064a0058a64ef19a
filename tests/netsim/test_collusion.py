"""Tests for the collusion-threat analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.netsim.collusion import (
    collect_observations,
    run_collusion_attack,
    simulate_walk_trajectories,
)


class TestTrajectories:
    def test_shape(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 7, rng=0)
        assert trajectories.shape == (small_regular.num_nodes, 8)

    def test_starts_at_own_node(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 3, rng=0)
        np.testing.assert_array_equal(
            trajectories[:, 0], np.arange(small_regular.num_nodes)
        )

    def test_consecutive_positions_are_neighbors(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 5, rng=0)
        for token in range(0, small_regular.num_nodes, 7):
            for t in range(5):
                u = int(trajectories[token, t])
                v = int(trajectories[token, t + 1])
                assert small_regular.has_edge(u, v)

    def test_deterministic(self, small_regular):
        a = simulate_walk_trajectories(small_regular, 5, rng=4)
        b = simulate_walk_trajectories(small_regular, 5, rng=4)
        np.testing.assert_array_equal(a, b)

    def test_rejects_negative_steps(self, small_regular):
        with pytest.raises(ValidationError):
            simulate_walk_trajectories(small_regular, -1, rng=0)


class TestObservations:
    def test_no_colluders_no_observations(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 5, rng=0)
        assert collect_observations(trajectories, np.array([])) == []

    def test_all_colluders_observe_everything_round_one(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 5, rng=0)
        everyone = np.arange(small_regular.num_nodes)
        observations = collect_observations(trajectories, everyone)
        assert len(observations) == small_regular.num_nodes
        assert all(obs.round_index == 1 for obs in observations)

    def test_earliest_sighting_recorded(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 8, rng=0)
        colluders = np.array([0, 1, 2])
        observations = collect_observations(trajectories, colluders)
        for obs in observations:
            path = trajectories[obs.token]
            # No earlier sighting exists.
            for earlier in range(1, obs.round_index):
                assert int(path[earlier]) not in {0, 1, 2}
            assert int(path[obs.round_index]) in {0, 1, 2}
            assert int(path[obs.round_index - 1]) == obs.sender


class TestAttack:
    def test_no_colluders_equals_baseline(self, medium_regular):
        result = run_collusion_attack(medium_regular, 20, [], rng=0)
        assert result.num_colluders == 0
        assert result.observed_tokens == 0
        assert result.linkage_accuracy == result.baseline_accuracy

    def test_more_colluders_more_linkage(self, medium_regular):
        few = run_collusion_attack(
            medium_regular, 20, range(10), rng=0
        )
        many = run_collusion_attack(
            medium_regular, 20, range(100), rng=0
        )
        assert many.observed_tokens > few.observed_tokens
        assert many.linkage_accuracy >= few.linkage_accuracy

    def test_colluders_beat_baseline(self, medium_regular):
        result = run_collusion_attack(
            medium_regular, 20, range(80), rng=0
        )
        assert result.linkage_accuracy > 2 * result.baseline_accuracy

    def test_observation_rate_property(self, medium_regular):
        result = run_collusion_attack(medium_regular, 20, range(40), rng=0)
        assert 0.0 <= result.observation_rate <= 1.0

    def test_rejects_bad_colluder_ids(self, small_regular):
        with pytest.raises(ValidationError):
            run_collusion_attack(small_regular, 5, [9999], rng=0)


class TestVectorizedParity:
    """The batched attack must match the scalar reference exactly."""

    def test_observations_match_loop_reference(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 8, rng=0)
        colluders = np.array([0, 5, 9])
        colluder_set = {0, 5, 9}
        expected = []
        for token in range(trajectories.shape[0]):
            path = trajectories[token]
            for round_index in range(1, trajectories.shape[1]):
                if int(path[round_index]) in colluder_set:
                    expected.append(
                        (token, round_index, int(path[round_index - 1]))
                    )
                    break
        observed = [
            (obs.token, obs.round_index, obs.sender)
            for obs in collect_observations(trajectories, colluders)
        ]
        assert observed == expected

    def test_batched_posterior_matches_scalar(self, medium_regular):
        from repro.netsim.collusion import _map_origins
        from repro.testing.oracle import reverse_posterior_argmax

        rng = np.random.default_rng(0)
        anchors = rng.integers(0, medium_regular.num_nodes, 40)
        free_rounds = rng.integers(0, 9, 40)
        batched = _map_origins(
            medium_regular, anchors, free_rounds
        )
        scalar = np.array([
            reverse_posterior_argmax(medium_regular, int(a), int(r))
            for a, r in zip(anchors, free_rounds)
        ])
        np.testing.assert_array_equal(batched, scalar)

    def test_attack_guesses_match_scalar_pipeline(self, medium_regular):
        """Seeded end-to-end parity: the vectorized attack reproduces the
        per-token loop implementation bit for bit."""
        from repro.testing.oracle import reverse_posterior_argmax

        rounds, colluders = 10, list(range(25))
        result = run_collusion_attack(medium_regular, rounds, colluders, rng=5)

        trajectories = simulate_walk_trajectories(medium_regular, rounds, rng=5)
        n = medium_regular.num_nodes
        baseline = np.array([
            reverse_posterior_argmax(medium_regular, int(h), rounds)
            for h in trajectories[:, -1]
        ])
        guesses = baseline.copy()
        for obs in collect_observations(trajectories, np.array(colluders)):
            guesses[obs.token] = reverse_posterior_argmax(
                medium_regular, obs.sender, obs.round_index - 1
            )
        assert result.baseline_accuracy == float(
            np.mean(baseline == np.arange(n))
        )
        assert result.linkage_accuracy == float(
            np.mean(guesses == np.arange(n))
        )

    def test_empty_colluders_vectorized(self, small_regular):
        trajectories = simulate_walk_trajectories(small_regular, 4, rng=1)
        assert collect_observations(trajectories, np.array([])) == []

    def test_chunked_posterior_matches_unchunked(self, medium_regular, monkeypatch):
        """Column chunking (the large-graph memory guard) must not
        change a single guess."""
        from repro.netsim import collusion as module

        rng = np.random.default_rng(3)
        anchors = rng.integers(0, medium_regular.num_nodes, 50)
        free_rounds = rng.integers(0, 7, 50)
        full = module._map_origins(
            medium_regular, anchors, free_rounds
        )
        monkeypatch.setattr(module, "_MAX_BLOCK_CELLS", medium_regular.num_nodes * 3)
        chunked = module._map_origins(
            medium_regular, anchors, free_rounds
        )
        np.testing.assert_array_equal(full, chunked)
