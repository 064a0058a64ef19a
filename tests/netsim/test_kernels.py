"""The array engine's JIT kernels, exercised without numba.

The numba-facing loops (``_round_loop`` / ``_rounds_loop``) are plain
Python functions, so the JIT code *path* is testable on installs without
the ``repro[compiled]`` extra: resolve the interpreted loops into a
:class:`VectorizedExchange` and demand bit-equality with the same engine
on its NumPy round.  Implementation resolution (numpy, ``require_jit``,
broken-numba) is driven by monkeypatching the module's resolution state
(the ``use_kernels`` fixture), so every branch runs regardless of
whether numba is installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import BackendUnavailableError, SimulationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
)
from repro.graphs.graph import Graph
from repro.netsim.engine import _DEGREE_CACHE_LIMIT
from repro.netsim import kernels
from repro.netsim.engine import VectorizedExchange
from repro.netsim.faults import (
    AdversarialDropout,
    IndependentDropout,
    NoFaults,
)
from repro.netsim.kernels import backend_info, set_require_jit
from repro.scenario import RunDigest


def _assert_engines_identical(a, b):
    np.testing.assert_array_equal(a.token_position, b.token_position)
    np.testing.assert_array_equal(a.held_counts(), b.held_counts())
    np.testing.assert_array_equal(
        a.meters.messages_sent, b.meters.messages_sent
    )
    np.testing.assert_array_equal(
        a.meters.messages_received, b.meters.messages_received
    )
    np.testing.assert_array_equal(a.meters.peak_items, b.meters.peak_items)
    np.testing.assert_array_equal(
        a.meters.current_items, b.meters.current_items
    )
    # Same stream position: the engines drew the same number of doubles.
    assert a.rng.random() == b.rng.random()


FAULT_FACTORIES = [
    NoFaults,
    lambda: IndependentDropout(0.3),
    lambda: AdversarialDropout(np.arange(0, 30, 4)),
]


class TestInterpretedLoopKernels:
    """The numba code path, run interpreted, against the oracle."""

    @pytest.mark.parametrize("faults_factory", FAULT_FACTORIES)
    def test_round_loop_matches_vectorized(self, faults_factory, engine_on):
        graph = random_regular_graph(4, 30, rng=0)
        oracle = engine_on("numpy", graph, faults=faults_factory(), rng=42)
        loop = engine_on("loops", graph, faults=faults_factory(), rng=42)
        for engine in (oracle, loop):
            engine.seed_tokens(np.arange(30))
        for _ in range(8):
            oracle.run_round()
            loop.run_round()
        _assert_engines_identical(oracle, loop)

    def test_rounds_loop_matches_vectorized(self, engine_on):
        graph = random_regular_graph(4, 30, rng=1)
        oracle = engine_on("numpy", graph, rng=9)
        loop = engine_on("loops", graph, rng=9)
        for engine in (oracle, loop):
            engine.seed_tokens(np.repeat(np.arange(30), 2))
            engine.run(9)  # loop takes the fused NoFaults fast path
        _assert_engines_identical(oracle, loop)

    def test_round_loop_matches_across_schedule_swaps(self, engine_on):
        schedule = DynamicGraphSchedule([
            random_regular_graph(4, 24, rng=0),
            cycle_graph(24),
            complete_graph(24),
        ])
        oracle, loop = (
            engine_on(mode, schedule, faults=IndependentDropout(0.2), rng=5)
            for mode in ("numpy", "loops")
        )
        for engine in (oracle, loop):
            engine.seed_tokens(np.arange(24))
            engine.run(7)
        _assert_engines_identical(oracle, loop)

    def test_warm_up_accepts_interpreted_kernels(self):
        kernels._warm_up(kernels._round_loop, kernels._rounds_loop)


class TestCompiledEngine:
    """The engine's JIT-kernel path: fused driver, buffers, fallbacks."""

    def test_fused_run_matches_per_round_loop(self, engine_on):
        graph = random_regular_graph(6, 40, rng=2)
        fused = engine_on("loops", graph, rng=77)
        stepped = engine_on("loops", graph, rng=77)
        for engine in (fused, stepped):
            engine.seed_tokens(np.arange(40))
        fused.run(9)  # odd round count exercises the order swap
        for _ in range(9):
            stepped.run_round()
        _assert_engines_identical(fused, stepped)
        assert fused.round_index == stepped.round_index == 9

    def test_fused_run_chunks_uniform_blocks(self, monkeypatch, engine_on):
        """Chunked pre-draws consume the identical stream."""
        graph = cycle_graph(10)
        whole = engine_on("loops", graph, rng=3)
        chunked = engine_on("loops", graph, rng=3)
        for engine in (whole, chunked):
            engine.seed_tokens(np.arange(10))
        whole.run(8)
        # Force 3-round blocks (8 = 3 + 3 + 2 → odd/even chunk parity).
        monkeypatch.setattr(kernels, "_UNIFORM_BLOCK", 30)
        chunked.run(8)
        _assert_engines_identical(whole, chunked)

    def test_buffers_reused_across_rounds(self, engine_on):
        graph = cycle_graph(12)
        engine = engine_on("loops", graph, rng=0)
        engine.seed_tokens(np.arange(12))
        engine.run_round()
        buffers = engine._buffers
        engine.run(5)
        assert engine._buffers is buffers

    def test_buffers_rebuilt_on_token_count_change(self, engine_on):
        graph = cycle_graph(12)
        engine = engine_on("loops", graph, rng=0)
        engine.seed_tokens(np.arange(12))
        engine.run(2)
        first = engine._buffers
        engine.drain()
        engine.seed_tokens(np.arange(5))
        engine.run(2)
        assert engine._buffers is not first
        assert engine._buffers.alt_order.shape == (5,)

    def test_drained_fused_run_only_advances_clock(self, engine_on):
        graph = cycle_graph(8)
        engine = engine_on("loops", graph, rng=0)
        engine.seed_tokens(np.arange(8))
        engine.run(2)
        engine.drain()
        engine.run(5)
        assert engine.round_index == 7
        assert engine.held_counts().sum() == 0

    def test_trajectories_recorded_per_round(self, engine_on):
        graph = cycle_graph(9)
        plain = engine_on("loops", graph, rng=4)
        recording = engine_on(
            "loops", graph, rng=4, record_trajectories=True
        )
        for engine in (plain, recording):
            engine.seed_tokens(np.arange(9))
            engine.run(5)  # recording engine must not take the fused path
        paths = recording.trajectories()
        assert paths.shape == (9, 6)
        np.testing.assert_array_equal(paths[:, -1], plain.token_position)

    def test_isolated_holder_raises_from_run(self, engine_on):
        graph_with_isolate = DynamicGraphSchedule([
            Graph(3, [(0, 1), (1, 2)]),
            Graph(3, [(0, 2)]),  # node 1 isolated
        ])
        engine = engine_on("loops", graph_with_isolate, rng=0)
        engine.seed_tokens(np.array([0]))
        engine.run_round()
        np.testing.assert_array_equal(engine.held_counts(), [0, 1, 0])
        with pytest.raises(SimulationError):
            engine.run(1)


class TestImplementationResolution:
    def test_resolves_numpy_without_numba(self, monkeypatch):
        monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", False)
        monkeypatch.setitem(kernels._RESOLVED, "implementation", None)
        assert kernels.resolve_implementation() == "numpy"

    def test_require_jit_argument_raises_on_numpy_fallback(self, monkeypatch):
        monkeypatch.setitem(kernels._RESOLVED, "implementation", "numpy")
        with pytest.raises(BackendUnavailableError):
            kernels.resolve_implementation(require_jit=True)

    def test_require_jit_flag_raises_in_engine_constructor(self, monkeypatch):
        monkeypatch.setitem(kernels._RESOLVED, "implementation", "numpy")
        previous = set_require_jit(True)
        try:
            assert kernels.require_jit_enabled()
            with pytest.raises(BackendUnavailableError):
                VectorizedExchange(cycle_graph(4), rng=0)
        finally:
            set_require_jit(previous)

    def test_engine_runs_the_resolved_kernels(self, use_kernels):
        use_kernels("numpy")
        assert VectorizedExchange(cycle_graph(4), rng=0)._kernels is None
        use_kernels("loops")
        engine = VectorizedExchange(cycle_graph(4), rng=0)
        assert engine._kernels == (kernels._round_loop, kernels._rounds_loop)

    def test_broken_numba_always_raises(self, monkeypatch):
        monkeypatch.setitem(kernels._RESOLVED, "implementation", "broken")
        monkeypatch.setitem(
            kernels._RESOLVED, "error", RuntimeError("jit exploded")
        )
        with pytest.raises(BackendUnavailableError, match="jit exploded"):
            kernels.resolve_implementation()
        with pytest.raises(BackendUnavailableError):
            kernels.resolve_implementation(require_jit=False)

    def test_backend_label_per_engine(self, monkeypatch):
        """Every engine spelling labels the one network backend; which
        kernels ran is :func:`backend_info`'s business."""

        def label(engine):
            return RunDigest(
                protocol="all", engine=engine, num_users=1, rounds=0,
                dummy_count=0, elapsed_seconds=0.0,
            ).summary()["backend"]

        for implementation in ("numpy", "broken"):
            monkeypatch.setitem(
                kernels._RESOLVED, "implementation", implementation
            )
            assert label("fast") == "vectorized"
            assert label("vectorized") == "vectorized"
            assert label("compiled") == "vectorized"
            assert label("faithful") == "vectorized"

    def test_backend_info_payload(self):
        info = backend_info()
        assert set(info) == {
            "numba_available", "compiled_kernels", "require_jit"
        }
        assert info["numba_available"] == kernels.NUMBA_AVAILABLE
        assert info["compiled_kernels"] in ("numba", "numpy", "broken")


class TestBoundedDegreeCache:
    def test_static_engine_never_populates_cache(self):
        """Manual swaps on a static engine bypass the cache entirely —
        nothing pins the replaced graphs alive."""
        engine = VectorizedExchange(cycle_graph(10), rng=0)
        assert engine._degree_cache_limit == 1
        for seed in range(6):
            engine.set_graph(random_regular_graph(4, 10, rng=seed))
            assert len(engine._degree_cache) == 0

    def test_schedule_cache_bounded_by_distinct_graphs(self):
        schedule = DynamicGraphSchedule([
            random_regular_graph(4, 20, rng=0),
            cycle_graph(20),
            complete_graph(20),
        ])
        engine = VectorizedExchange(schedule, rng=0)
        assert engine._degree_cache_limit == 3
        engine.seed_tokens(np.arange(20))
        engine.run(9)  # cycles through every graph three times
        assert len(engine._degree_cache) <= 3

    def test_repeated_graph_hits_cache(self):
        schedule = DynamicGraphSchedule([
            random_regular_graph(4, 16, rng=0),
            cycle_graph(16),
        ])
        engine = VectorizedExchange(schedule, rng=0)
        engine.seed_tokens(np.arange(16))
        engine.run_round()  # graph 0 (bound at construction)
        engine.run_round()  # graph 1 — cached by set_graph
        degrees_graph_one = engine._degrees
        engine.run_round()  # graph 0 again
        engine.run_round()  # graph 1 — must hit, not recompute
        assert engine._degrees is degrees_graph_one

    def test_cache_limit_caps_lazy_schedules(self):
        graphs = [random_regular_graph(4, 12, rng=seed) for seed in range(5)]
        schedule = DynamicGraphSchedule(graphs)
        engine = VectorizedExchange(schedule, rng=0)
        # The bound formula: min(num_graphs, module cap).
        assert engine._degree_cache_limit == min(
            schedule.num_graphs, _DEGREE_CACHE_LIMIT
        )
        for graph in graphs * 2:
            engine.set_graph(graph)
        assert len(engine._degree_cache) <= engine._degree_cache_limit
