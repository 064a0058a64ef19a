"""Out-of-core schedule accounting: planning, the block store, resume.

The panel engine end to end: :func:`plan_profile` derives the panel
width from the memory budget, :class:`ProfileStore` evolves/keeps/
resumes column blocks with bit-identical results, the runner surfaces
the accounting payload, pooled sweeps split the budget per worker, and
a killed process resumes from its spilled blocks (chaos-tested through
the fault harness).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import parse_scenario
from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import random_regular_graph
from repro.scenario import bound, clear_graph_cache, sweep
from repro.scenario.profile import (
    DEFAULT_MEMORY_BUDGET,
    ProfilePolicy,
    ProfileStore,
    get_profile_policy,
    parse_memory_budget,
    plan_profile,
    profile_policy,
    profile_stats,
    set_profile_policy,
)
from repro.testing import faults
from repro.testing.oracle import collision_profile_on_schedule

N = 30
STEPS = 5


def _schedule() -> DynamicGraphSchedule:
    return DynamicGraphSchedule([
        random_regular_graph(4, N, rng=0),
        random_regular_graph(6, N, rng=1),
    ])


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_graph_cache()
    yield
    clear_graph_cache()


def _counted_since(before):
    """The profile counters' growth since the ``before`` reading (they
    are monotone, so tests assert on differences)."""
    after = profile_stats()
    return {name: after[name] - before[name] for name in after}


class TestPolicy:
    def test_default_policy(self):
        policy = get_profile_policy()
        assert policy.memory_budget == DEFAULT_MEMORY_BUDGET

    def test_context_manager_restores(self):
        before = get_profile_policy()
        with profile_policy(memory_budget=1024):
            assert get_profile_policy().memory_budget == 1024
        assert get_profile_policy() == before

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValidationError, match="budget"):
            ProfilePolicy(memory_budget=0)

    def test_set_rejects_non_policy(self):
        with pytest.raises(ValidationError, match="ProfilePolicy"):
            set_profile_policy({"memory_budget": 1024})


class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("4096", 4096),
            ("512M", 512 * 1024**2),
            ("2g", 2 * 1024**3),
            ("16KiB", 16 * 1024),
            ("1.5m", int(1.5 * 1024**2)),
            (4096, 4096),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "lots", "-1", "0", "M", "inf", "1e400"]
    )
    def test_rejects(self, text):
        with pytest.raises(ValidationError):
            parse_memory_budget(text)


class TestPlanProfile:
    def test_small_n_stays_dense(self):
        plan = plan_profile(64)
        assert plan.strategy == "dense"
        assert not plan.spill

    def test_auto_escalates_over_budget(self):
        policy = ProfilePolicy(memory_budget=16 * 1024)
        plan = plan_profile(64, policy)  # dense needs 16*64*64 = 64 KiB
        assert plan.strategy == "blocked"
        assert plan.spill
        assert 1 <= plan.block_size < 64
        assert plan.blocks * plan.block_size >= 64

    @pytest.mark.parametrize(
        "budget, width, blocks", [(16 * 64 * 7, 7, 10), (1, 1, 64)]
    )
    def test_width_is_budget_over_sixteen_n(self, budget, width, blocks):
        plan = plan_profile(64, ProfilePolicy(memory_budget=budget))
        assert plan.block_size == width
        assert plan.blocks == blocks


class TestProfileStore:
    def _store(self, tmp_path, **overrides):
        options = dict(
            identity="test-store", block_size=8, directory=tmp_path
        )
        options.update(overrides)
        return ProfileStore(_schedule(), **options)

    def test_collisions_match_dense_profile(self, tmp_path):
        store = self._store(tmp_path)
        collisions, dropped = store.collisions(STEPS)
        np.testing.assert_array_equal(
            collisions, collision_profile_on_schedule(_schedule(), STEPS)
        )
        assert not dropped.any()

    def test_spills_one_file_per_block(self, tmp_path):
        store = self._store(tmp_path)
        store.collisions(STEPS)
        files = sorted(store.directory.glob("block_*.npz"))
        assert len(files) == store.num_blocks == 4

    def test_second_store_resumes_from_disk(self, tmp_path):
        self._store(tmp_path).collisions(STEPS)
        before = profile_stats()
        warm, _ = self._store(tmp_path).collisions(STEPS)
        stats = _counted_since(before)
        assert stats["blocks_resumed"] == 4
        assert stats["blocks_evolved"] == 0
        np.testing.assert_array_equal(
            warm, collision_profile_on_schedule(_schedule(), STEPS)
        )

    def test_ascending_rounds_resume_is_bit_identical(self, tmp_path):
        store = self._store(tmp_path)
        store.collisions(3)
        resumed, _ = store.collisions(STEPS)
        cold, _ = self._store(tmp_path / "cold").collisions(STEPS)
        np.testing.assert_array_equal(resumed, cold)

    def test_descending_rounds_recompute_without_downgrade(self, tmp_path):
        store = self._store(tmp_path)
        store.collisions(STEPS)
        shorter, _ = store.collisions(2)
        np.testing.assert_array_equal(
            shorter, collision_profile_on_schedule(_schedule(), 2)
        )
        # The spilled blocks still hold the longer evolution.
        before = profile_stats()
        fresh = self._store(tmp_path)
        resumed, _ = fresh.collisions(STEPS)
        stats = _counted_since(before)
        assert stats["blocks_resumed"] == fresh.num_blocks
        assert stats["blocks_evolved"] == 0
        np.testing.assert_array_equal(
            resumed, collision_profile_on_schedule(_schedule(), STEPS)
        )

    def test_resident_store_resumes_and_keeps_longest(self, tmp_path):
        store = self._store(tmp_path, spill=False)
        store.collisions(3)
        before = profile_stats()
        resumed, _ = store.collisions(STEPS)
        assert _counted_since(before)["blocks_resumed"] == store.num_blocks
        np.testing.assert_array_equal(
            resumed, collision_profile_on_schedule(_schedule(), STEPS)
        )
        store.collisions(2)
        before = profile_stats()
        store.collisions(STEPS + 1)
        stats = _counted_since(before)
        assert stats["blocks_resumed"] == store.num_blocks
        assert stats["blocks_evolved"] == store.num_blocks

    def test_corrupt_block_is_a_miss_not_an_error(self, tmp_path):
        store = self._store(tmp_path)
        store.collisions(STEPS)
        block = store.block_path(0)
        archive = block.read_bytes()
        # A torn archive keeps the zip magic but loses its directory.
        for data in (b"not an npz archive", archive[: len(archive) // 2]):
            block.write_bytes(data)
            recovered, _ = self._store(tmp_path).collisions(STEPS)
            np.testing.assert_array_equal(
                recovered, collision_profile_on_schedule(_schedule(), STEPS)
            )

    def test_spill_false_touches_no_disk(self, tmp_path):
        store = self._store(tmp_path, spill=False)
        store.collisions(STEPS)
        assert not list(tmp_path.rglob("*.npz"))

    def test_truncation_is_sound(self, tmp_path):
        # The 30-node schedule mixes to ~1/30 per entry by 5 rounds, so
        # a 0.03 tolerance provably drops mass while staying in (0, 1).
        exact = collision_profile_on_schedule(_schedule(), STEPS)
        store = self._store(tmp_path, truncation=0.03)
        truncated, dropped = store.collisions(STEPS)
        assert np.all(truncated <= exact + 1e-15)
        assert np.all(exact <= truncated + 2.0 * dropped + 1e-15)
        assert dropped.any()

    def test_rejects_bad_block_size(self, tmp_path):
        with pytest.raises(ValidationError, match="block_size"):
            self._store(tmp_path, block_size=0)

    def test_rejects_negative_steps(self, tmp_path):
        with pytest.raises(ValidationError, match="steps"):
            self._store(tmp_path).collisions(-1)


SCHEDULE_SCENARIO = {
    "graph": {"kind": "schedule", "params": {"graphs": [
        {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
        {"kind": "cycle", "params": {"num_nodes": 64}},
    ]}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "rounds": 6,
    "seed": 3,
}


class TestBoundAccounting:
    def test_blocked_bound_matches_dense_bound_bitwise(self):
        scenario = parse_scenario(SCHEDULE_SCENARIO)
        dense = bound(scenario)
        clear_graph_cache()
        with profile_policy(memory_budget=16 * 64 * 7):
            blocked = bound(scenario)
        assert blocked.sum_squared == dense.sum_squared
        assert blocked.epsilon == dense.epsilon
        assert blocked.accounting == {
            **dense.accounting,
            "strategy": "blocked",
            "block_size": 7,
            "blocks": 10,
        }
        assert dense.accounting["strategy"] == "dense"
        assert dense.accounting["block_size"] == 64
        assert dense.accounting["blocks"] == 1
        assert blocked.accounting["exact"] is True

    def test_one_block_profile_stays_in_memory(self, tmp_path):
        from repro.scenario.cache import GRAPH_CACHE

        GRAPH_CACHE.spill_dir = tmp_path
        try:
            short = bound(parse_scenario({**SCHEDULE_SCENARIO, "rounds": 3}))
            before = profile_stats()
            longer = bound(parse_scenario(SCHEDULE_SCENARIO))
        finally:
            GRAPH_CACHE.spill_dir = None
        assert short.accounting["blocks"] == longer.accounting["blocks"] == 1
        assert not list(tmp_path.rglob("*.npz"))
        stats = _counted_since(before)
        assert stats["blocks_resumed"] == 1
        assert stats["dense_profiles"] == 1
        clear_graph_cache()
        assert bound(parse_scenario(SCHEDULE_SCENARIO)).sum_squared == (
            longer.sum_squared
        )

    def test_truncation_surfaces_provable_bound(self):
        scenario = parse_scenario(
            {**SCHEDULE_SCENARIO, "truncation": 1e-3}
        )
        exact = bound(parse_scenario(SCHEDULE_SCENARIO))
        result = bound(scenario)
        accounting = result.accounting
        assert accounting["truncation"] == 1e-3
        assert accounting["exact"] is False
        assert accounting["truncation_bound"] >= 0.0
        # Conservative: the fed mass upper-bounds the exact one, within
        # the reported interval width.
        assert result.sum_squared >= exact.sum_squared - 1e-15
        assert (
            result.sum_squared
            <= exact.sum_squared + accounting["truncation_bound"] + 1e-15
        )

    def test_truncation_on_static_graph_refused(self):
        scenario = parse_scenario({
            "graph": {
                "kind": "k_regular",
                "params": {"degree": 4, "num_nodes": 64},
            },
            "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
            "rounds": 4,
            "truncation": 1e-3,
            "seed": 0,
        })
        with pytest.raises(ValidationError, match="schedule"):
            bound(scenario)


class TestPooledSweepBudget:
    def test_worker_policy_divides_budget(self):
        from repro.scenario.sweep import (
            _MIN_WORKER_PROFILE_BUDGET,
            _worker_profile_policy,
        )

        with profile_policy(memory_budget=64 * 1024 * 1024):
            split = _worker_profile_policy(4)
            assert split["memory_budget"] == 16 * 1024 * 1024
        with profile_policy(memory_budget=1024):
            floored = _worker_profile_policy(4)
            assert floored["memory_budget"] == _MIN_WORKER_PROFILE_BUDGET

    def test_pooled_bound_sweep_matches_inline(self):
        # 1024 nodes: the 8 MiB worker floor plans two blocks of 512.
        scenario = parse_scenario({
            **SCHEDULE_SCENARIO,
            "graph": {"kind": "schedule", "params": {"graphs": [
                {"kind": "k_regular",
                 "params": {"degree": 4, "num_nodes": 1024}},
                {"kind": "cycle", "params": {"num_nodes": 1024}},
            ]}},
        })
        axis = {"rounds": [2, 4]}
        inline = sweep(scenario, axis=axis, mode="bound")
        clear_graph_cache()
        with profile_policy(memory_budget=1024):
            pooled = sweep(scenario, axis=axis, mode="bound", workers=2)
        for point_a, point_b in zip(inline, pooled):
            assert point_a.epsilon == point_b.epsilon
            assert point_a.outcome.accounting["strategy"] == "dense"
            assert point_b.outcome.accounting["strategy"] == "blocked"
            assert point_b.outcome.accounting["blocks"] == 2

    def test_pooled_sweep_brings_worker_counts_to_the_parent(self):
        # Every point profiles in a worker; the parent only builds the
        # graph, yet its counters gain one dense profile per point.
        before = profile_stats()
        pooled = sweep(
            parse_scenario(SCHEDULE_SCENARIO), axis={"rounds": [2, 4]},
            mode="bound", workers=2,
        )
        assert [point.outcome.accounting["strategy"] for point in pooled] == [
            "dense", "dense",
        ]
        counted = _counted_since(before)
        assert counted["dense_profiles"] == 2
        assert counted["blocks_evolved"] + counted["blocks_resumed"] >= 2


_CHAOS_CHILD = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.graphs.dynamic import DynamicGraphSchedule
    from repro.graphs.generators import random_regular_graph
    from repro.scenario.profile import ProfileStore, profile_stats

    directory = sys.argv[1]
    schedule = DynamicGraphSchedule([
        random_regular_graph(4, 30, rng=0),
        random_regular_graph(6, 30, rng=1),
    ])
    store = ProfileStore(
        schedule, identity="chaos", block_size=8, directory=directory
    )
    collisions, _ = store.collisions(5)
    print(collisions.tobytes().hex())
    print(profile_stats()["blocks_resumed"])
    """
)


class TestChaosResume:
    def test_killed_profile_resumes_from_spilled_blocks(self, tmp_path):
        """Kill the process after block 1 spills; the re-run must resume
        (not restart) and still produce bit-identical collision mass."""
        spill = tmp_path / "blocks"
        counters = tmp_path / "counters"

        def run_child():
            # The child inherits the fault plan through the environment,
            # exactly like a pool worker would.
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [
                str(Path(repro.__file__).resolve().parents[1]),
                env.get("PYTHONPATH"),
            ]))
            return subprocess.run(
                [sys.executable, "-c", _CHAOS_CHILD, str(spill)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )

        with faults.inject(
            [faults.FaultRule(point=1, action="exit", channel="profile")],
            directory=counters,
        ):
            killed = run_child()
            assert killed.returncode == 17, killed.stderr
            # Blocks 0 and 1 completed (and spilled) before the kill.
            spilled = sorted(p.name for p in spill.rglob("block_*.npz"))
            assert len(spilled) == 2
            retried = run_child()
        assert retried.returncode == 0, retried.stderr
        payload, resumed = retried.stdout.split()
        expected = collision_profile_on_schedule(_schedule(), STEPS)
        assert payload == expected.tobytes().hex()
        assert int(resumed) >= 2
