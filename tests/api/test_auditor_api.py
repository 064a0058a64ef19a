"""Public auditor planning API: resolve_method.

``resolve_method`` was ``_resolve_method`` — a private heuristic the
scenario layer reached into.  Now it is a documented export, and the
only place the auditor's engine is decided: no caller option overrides
it, and the scenario layer memoizes a kernel sampler exactly when it
answers ``"kernel"``.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.auditing import KERNEL_MAX_NODES, resolve_method
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.scenario import Scenario, audit


@pytest.fixture
def small_graph():
    return random_regular_graph(4, 50, rng=7)


@pytest.fixture
def schedule():
    return DynamicGraphSchedule([cycle_graph(9), cycle_graph(9)])


@pytest.fixture
def fresh_cache():
    api.clear_graph_cache()
    yield
    api.clear_graph_cache()


def _audit_builds(graph_spec) -> int:
    """Kernel samplers built by one 12-round scenario audit."""
    before = api.sampler_stats()["builds"]
    audit(
        Scenario(
            graph=graph_spec,
            mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
            rounds=12,
            seed=0,
        ),
        trials=40,
    )
    return api.sampler_stats()["builds"] - before


class TestResolveMethod:
    def test_auto_prefers_kernel_on_small_graphs(self, small_graph):
        assert resolve_method(small_graph, rounds=64) == "kernel"

    def test_auto_falls_back_for_short_walks(self, small_graph):
        # Few rounds: step-simulating is cheaper than building M^t.
        assert resolve_method(small_graph, rounds=1) == "tiled"

    def test_kernel_on_schedule_is_refused(self, schedule):
        # A time-varying topology has no single t-step kernel, however
        # well mixed the walk is.
        for rounds in (8, 64, 10_000):
            assert resolve_method(schedule, rounds=rounds) == "tiled"

    def test_auto_on_schedule_step_simulates(self, schedule):
        assert resolve_method(schedule, rounds=8) == "tiled"


class TestShouldMemoize:
    """The scenario layer memoizes a sampler exactly when the auditor
    will run the kernel engine."""

    def test_small_static_graph_memoizes(self, fresh_cache):
        spec = {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 50}}
        assert _audit_builds(spec) == 1

    def test_schedule_never_memoizes(self, fresh_cache):
        cycle = {"kind": "cycle", "params": {"num_nodes": 9}}
        spec = {"kind": "schedule", "params": {"graphs": [cycle, cycle]}}
        assert _audit_builds(spec) == 0

    def test_cap_is_the_kernel_cap(self):
        # Past the cap the dense stage tables would run to hundreds of
        # MB, so the kernel engine (and its memo) is never chosen.
        assert resolve_method(cycle_graph(KERNEL_MAX_NODES), 64) == "kernel"
        assert resolve_method(cycle_graph(KERNEL_MAX_NODES + 1), 64) == "tiled"


class TestDeprecatedSpellings:
    def test_unknown_attribute_still_raises(self):
        from repro.auditing import auditor

        for name in ("_no_such_name", "_resolve_method", "_KERNEL_MAX_NODES"):
            with pytest.raises(AttributeError):
                getattr(auditor, name)

    def test_scenario_auditing_imports_no_private_names(self):
        # The acceptance criterion: the scenario layer uses only the
        # public planning API.
        import inspect

        from repro.scenario import auditing

        source = inspect.getsource(auditing)
        assert "_resolve_method" not in source
        assert "_KERNEL_MAX_NODES" not in source
