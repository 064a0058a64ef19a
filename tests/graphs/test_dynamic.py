"""Tests for dynamic-graph walks (Section 4.5 extension).

The walks themselves live in :mod:`repro.graphs.walks` and take a
schedule wherever they take a graph; these tests drive them on
multi-graph schedules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.dynamic import (
    DynamicGraphSchedule,
    EpochSelector,
    _TransitionCache,
    evolve_panel_on_schedule,
    identity_panel,
    panel_collisions,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
)
from repro.graphs.spectral import lazy_transition_matrix
from repro.graphs.walks import (
    evolve_distribution,
    position_distribution,
    simulate_token_walks,
    simulate_trial_walks,
    sum_squared_positions,
)
from repro.scenario.profile import ProfileStore
from repro.testing.oracle import (
    collision_profile_on_schedule,
    evolve_profile_on_schedule,
)


@pytest.fixture
def two_graphs():
    return [
        random_regular_graph(4, 60, rng=0),
        random_regular_graph(6, 60, rng=1),
    ]


class TestSchedule:
    def test_round_robin_default(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        assert schedule.graph_at(0) is two_graphs[0]
        assert schedule.graph_at(1) is two_graphs[1]
        assert schedule.graph_at(2) is two_graphs[0]

    def test_custom_selector(self, two_graphs):
        schedule = DynamicGraphSchedule(
            two_graphs, selector=lambda r: 0 if r < 3 else 1
        )
        assert schedule.graph_at(2) is two_graphs[0]
        assert schedule.graph_at(3) is two_graphs[1]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            DynamicGraphSchedule([])

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValidationError):
            DynamicGraphSchedule([complete_graph(5), complete_graph(6)])

    def test_rejects_bad_selector_output(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs, selector=lambda r: 7)
        with pytest.raises(ValidationError):
            schedule.graph_at(0)

    def test_rejects_negative_round(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        with pytest.raises(ValidationError):
            schedule.graph_at(-1)


class TestEvolveOnSchedule:
    def test_static_schedule_matches_plain_walk(self):
        graph = random_regular_graph(4, 40, rng=0)
        schedule = DynamicGraphSchedule([graph])
        initial = np.zeros(40)
        initial[0] = 1.0
        dynamic = evolve_distribution(schedule, initial, 8)
        static = evolve_distribution(graph, initial, 8)
        np.testing.assert_allclose(dynamic, static, atol=1e-12)

    def test_mass_preserved(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        initial = np.full(60, 1.0 / 60)
        result = evolve_distribution(schedule, initial, 10)
        assert result.sum() == pytest.approx(1.0)

    def test_alternating_bipartite_never_converges(self):
        """Two complementary bipartite graphs keep the parity alive —
        the convergence caveat the module documents."""
        even_cycle = cycle_graph(6)
        schedule = DynamicGraphSchedule([even_cycle])
        initial = np.zeros(6)
        initial[0] = 1.0
        result = evolve_distribution(schedule, initial, 100)
        # Parity preserved: odd nodes never reached at even times.
        assert result[1] == pytest.approx(0.0, abs=1e-12)

    def test_churn_still_mixes(self, two_graphs):
        """Alternating between two ergodic graphs still spreads mass."""
        schedule = DynamicGraphSchedule(two_graphs)
        initial = np.zeros(60)
        initial[0] = 1.0
        assert sum_squared_positions(
            evolve_distribution(schedule, initial, 0)
        ) == 1.0
        assert sum_squared_positions(
            evolve_distribution(schedule, initial, 40)
        ) == pytest.approx(1.0 / 60, rel=0.05)


class TestTraceCollision:
    def test_uniform_start_stays_uniformish(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        initial = np.full(60, 1.0 / 60)
        for steps in range(6):
            value = sum_squared_positions(
                evolve_distribution(schedule, initial, steps)
            )
            assert value == pytest.approx(1.0 / 60, rel=0.05)


class TestMemoizedTransitions:
    """The per-graph CSR memo must leave results bit-identical."""

    def test_repeated_graph_matches_static_walk_exactly(self):
        graph = random_regular_graph(4, 40, rng=0)
        schedule = DynamicGraphSchedule([graph])  # every round reuses it
        initial = np.zeros(40)
        initial[0] = 1.0
        dynamic = evolve_distribution(schedule, initial, 12)
        static = evolve_distribution(graph, initial, 12)
        np.testing.assert_array_equal(dynamic, static)

    def test_trace_matches_manual_unmemoized_loop(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        initial = np.zeros(60)
        initial[0] = 1.0
        current = initial.astype(np.float64)
        for round_index in range(9):
            matrix_t = lazy_transition_matrix(
                schedule.graph_at(round_index), 0.2
            ).T.tocsr()
            current = matrix_t @ current
            memoized = evolve_distribution(
                schedule, initial, round_index + 1, laziness=0.2
            )
            np.testing.assert_array_equal(memoized, current)

    def test_start_round_offsets_the_schedule_clock(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        panel = np.zeros((60, 1))
        panel[17, 0] = 1.0
        full, _ = evolve_panel_on_schedule(schedule, panel, 7)
        prefix, _ = evolve_panel_on_schedule(schedule, panel, 3)
        resumed, _ = evolve_panel_on_schedule(
            schedule, prefix, 4, start_round=3
        )
        np.testing.assert_array_equal(full, resumed)


class TestPositionDistributionOnSchedule:
    def test_matches_evolved_one_hot(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        initial = np.zeros(60)
        initial[5] = 1.0
        np.testing.assert_array_equal(
            position_distribution(schedule, 5, 8),
            evolve_distribution(schedule, initial, 8),
        )

    def test_static_schedule_matches_plain_helper(self):
        graph = random_regular_graph(4, 30, rng=2)
        schedule = DynamicGraphSchedule([graph])
        np.testing.assert_array_equal(
            position_distribution(schedule, 0, 6),
            position_distribution(graph, 0, 6),
        )

    def test_rejects_out_of_range_start(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        with pytest.raises(ValidationError):
            position_distribution(schedule, 60, 3)


class TestProfileEvolution:
    def test_profile_columns_are_per_user_walks(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        profile = evolve_profile_on_schedule(schedule, np.eye(60), 6)
        for user in (0, 13, 59):
            np.testing.assert_array_equal(
                profile[:, user],
                position_distribution(schedule, user, 6),
            )

    def test_collision_profile_matches_per_user_traces(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        collisions = collision_profile_on_schedule(schedule, 5)
        assert collisions.shape == (60,)
        for user in (0, 30):
            exact = sum_squared_positions(position_distribution(schedule, user, 5))
            assert collisions[user] == pytest.approx(exact, abs=1e-15)

    def test_rejects_wrong_shape(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        with pytest.raises(ValidationError):
            evolve_profile_on_schedule(schedule, np.eye(10), 2)


class TestTransitionCacheIdentity:
    """The memo keys by ``id(graph)`` but must pin the graph it keyed.

    Regression: a bare ``id -> matrix`` map let a garbage-collected
    graph's reused ``id`` silently answer with the *old* topology's
    transition matrix.
    """

    def test_reused_id_never_returns_stale_matrix(self):
        class LazyPhases(DynamicGraphSchedule):
            """Generates each phase graph on demand, keeping no refs."""

            def __init__(self):
                super().__init__([cycle_graph(8)])

            def graph_at(self, round_index):
                if round_index % 2 == 0:
                    return cycle_graph(8)
                return random_regular_graph(4, 8, rng=1)

        schedule = LazyPhases()
        cache = _TransitionCache(schedule, 0.0)
        expected = []
        for round_index in range(6):
            # Hold our own reference so the comparison graph can't be
            # collected; the *cache's* correctness under collection is
            # what the loop below exercises.
            graph = schedule.graph_at(round_index)
            expected.append(lazy_transition_matrix(graph, 0.0).T.tocsr())
        for round_index in range(6):
            got = cache.at(round_index)
            want = expected[round_index]
            assert (got != want).nnz == 0, f"round {round_index}"

    def test_cache_pins_keyed_graphs(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        cache = _TransitionCache(schedule, 0.0)
        cache.at(0)
        cache.at(1)
        held = [entry[0] for entry in cache._matrices.values()]
        assert two_graphs[0] in held and two_graphs[1] in held


class TestEpochSelector:
    def test_holds_each_graph_for_block_rounds(self, two_graphs):
        schedule = DynamicGraphSchedule(
            two_graphs, selector=EpochSelector(3, 2)
        )
        picks = [schedule.graph_at(r) for r in range(8)]
        assert picks[:3] == [two_graphs[0]] * 3
        assert picks[3:6] == [two_graphs[1]] * 3
        assert picks[6:] == [two_graphs[0]] * 2


def _blocked(schedule, steps, *, block_size, **options):
    """Per-user ``(collisions, dropped)`` from an in-memory block store."""
    store = ProfileStore(
        schedule, identity="parity", block_size=block_size, spill=False,
        **options,
    )
    return store.collisions(steps)


class TestBlockedCollisionParity:
    """Property: blocked accounting is bit-identical to dense, any B."""

    @pytest.mark.parametrize("block_size", [1, 7, 60])
    @pytest.mark.parametrize("laziness", [0.0, 0.3])
    def test_bit_identical_across_block_sizes(
        self, two_graphs, block_size, laziness
    ):
        schedule = DynamicGraphSchedule(two_graphs)
        dense = collision_profile_on_schedule(schedule, 6, laziness=laziness)
        blocked, dropped = _blocked(
            schedule, 6, block_size=block_size, laziness=laziness
        )
        np.testing.assert_array_equal(blocked, dense)
        assert not dropped.any()

    def test_zero_steps_is_one_hot_collision(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        collisions, _ = _blocked(schedule, 0, block_size=13)
        np.testing.assert_array_equal(collisions, np.ones(60))

    def test_panel_resume_matches_cold_run(self, two_graphs):
        """Evolving 3+3 rounds through ``start_round`` equals 6 cold."""
        schedule = DynamicGraphSchedule(two_graphs)
        cold, _ = evolve_panel_on_schedule(
            schedule, identity_panel(60, 10, 20), 6
        )
        prefix, dropped = evolve_panel_on_schedule(
            schedule, identity_panel(60, 10, 20), 3
        )
        resumed, _ = evolve_panel_on_schedule(
            schedule, prefix, 3, start_round=3, dropped=dropped
        )
        np.testing.assert_array_equal(
            panel_collisions(resumed), panel_collisions(cold)
        )

    def test_rejects_bad_block_size(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        with pytest.raises(ValidationError):
            _blocked(schedule, 2, block_size=0)


class TestTruncation:
    """Truncated accounting lower-bounds exact, priced by dropped mass."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-3, 1e-2])
    def test_soundness_bracket(self, two_graphs, tol):
        schedule = DynamicGraphSchedule(two_graphs)
        exact = collision_profile_on_schedule(schedule, 6)
        truncated, dropped = _blocked(
            schedule, 6, block_size=17, truncation=tol
        )
        assert np.all(truncated <= exact + 1e-15)
        assert np.all(exact <= truncated + 2.0 * dropped + 1e-15)

    def test_tiny_tolerance_drops_nothing(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        exact = collision_profile_on_schedule(schedule, 4)
        truncated, dropped = _blocked(
            schedule, 4, block_size=60, truncation=1e-300
        )
        np.testing.assert_array_equal(truncated, exact)
        assert not dropped.any()

    def test_rejects_out_of_range_tolerance(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        for tol in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                evolve_panel_on_schedule(
                    schedule, identity_panel(60, 0, 4), 2, truncation=tol
                )


class TestSimulateTokens:
    def test_shape_and_range(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        starts = np.arange(60)
        finals = simulate_token_walks(schedule, starts, 12, rng=0)
        assert finals.shape == (60,)
        assert finals.min() >= 0 and finals.max() < 60

    def test_matches_exact_distribution(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        starts = np.zeros(50_000, dtype=np.int64)
        finals = simulate_token_walks(schedule, starts, 6, rng=0)
        empirical = np.bincount(finals, minlength=60) / 50_000
        initial = np.zeros(60)
        initial[0] = 1.0
        exact = evolve_distribution(schedule, initial, 6)
        assert np.abs(empirical - exact).sum() < 0.06


class TestScheduleWalkStranding:
    @pytest.mark.parametrize("steps", [0, 1])
    def test_isolated_start_is_validation_error(self, steps):
        from repro.graphs.graph import Graph

        isolating = Graph(3, [(0, 1)])  # node 2 isolated
        schedule = DynamicGraphSchedule([isolating])
        with pytest.raises(ValidationError, match="start on isolated"):
            simulate_token_walks(schedule, np.array([2]), steps, rng=0)

    def test_mid_walk_stranding_is_simulation_error(self):
        """A swap that isolates a walker's node mid-schedule raises the
        engine's exception type, not a misleading start-node error."""
        from repro.exceptions import SimulationError
        from repro.graphs.graph import Graph

        path = Graph(3, [(0, 1), (1, 2)])
        isolating = Graph(3, [(0, 2)])  # node 1 isolated
        schedule = DynamicGraphSchedule([path, isolating])
        with pytest.raises(SimulationError, match="isolated in the current"):
            # Round 0 moves the token from 0 to its only neighbor 1;
            # round 1's topology strands it there.
            simulate_token_walks(schedule, np.array([0]), 2, rng=0)

    def test_lazy_stayer_tolerates_temporary_isolation(self):
        """The exchange engine's lazy-walk semantics: a token that stays
        put this round (laziness) survives a topology that isolates its
        node — only a *moving* stranded token is an error."""
        from repro.graphs.graph import Graph

        path = Graph(3, [(0, 1), (1, 2)])
        isolating = Graph(3, [(0, 2)])  # node 1 isolated
        schedule = DynamicGraphSchedule([path, isolating])
        finals = simulate_token_walks(
            schedule, np.array([0]), 2, laziness=1.0, rng=0
        )
        assert int(finals[0]) == 0  # never moved, never stranded

    def test_full_outage_phase_survived_by_lazy_walk(self):
        """A zero-edge phase (total outage) must not crash the gather:
        fully lazy tokens wait it out; a forced move raises the
        documented SimulationError with the round prefix."""
        from repro.exceptions import SimulationError
        from repro.graphs.generators import cycle_graph
        from repro.graphs.graph import Graph

        outage = DynamicGraphSchedule(
            [cycle_graph(4), Graph(4, [])],
        )
        finals = simulate_token_walks(
            outage, np.arange(4), 4, laziness=1.0, rng=0
        )
        np.testing.assert_array_equal(finals, np.arange(4))
        with pytest.raises(SimulationError, match="round 1"):
            simulate_token_walks(outage, np.arange(4), 2, rng=0)

    def test_negative_steps_rejected(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        with pytest.raises(ValidationError):
            simulate_token_walks(schedule, np.arange(60), -1)

    def test_out_of_range_starts_rejected(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        with pytest.raises(ValidationError, match="out of range"):
            simulate_token_walks(schedule, np.array([60]), 1)


class TestTrialWalksOnSchedule:
    def test_shape_and_tiling_equivalence(self, two_graphs):
        """The trial axis is the token axis tiled: one flat seeded call
        produces the identical draws."""
        schedule = DynamicGraphSchedule(two_graphs)
        starts = np.arange(60)
        trials = simulate_trial_walks(
            schedule, starts, 5, 7, rng=3
        )
        assert trials.shape == (7, 60)
        flat = simulate_token_walks(
            schedule, np.tile(starts, 7), 5, rng=3
        )
        np.testing.assert_array_equal(trials, flat.reshape(7, 60))

    def test_rejects_non_positive_trials(self, two_graphs):
        schedule = DynamicGraphSchedule(two_graphs)
        with pytest.raises(ValidationError):
            simulate_trial_walks(schedule, np.arange(60), 3, 0)
