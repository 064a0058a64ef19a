"""Public auditor planning API: resolve_method / should_memoize.

These were ``_resolve_method`` and ``_KERNEL_MAX_NODES`` — private
heuristics the scenario layer reached into.  Now they are documented
exports; the old spellings are gone.
"""

from __future__ import annotations

import pytest

from repro.auditing import (
    KERNEL_MAX_NODES,
    resolve_method,
    should_memoize,
)
from repro.exceptions import ScheduleRefusedError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import cycle_graph, random_regular_graph


@pytest.fixture
def small_graph():
    return random_regular_graph(4, 50, rng=7)


@pytest.fixture
def schedule():
    return DynamicGraphSchedule([cycle_graph(9), cycle_graph(9)])


class TestResolveMethod:
    def test_explicit_methods_pass_through(self, small_graph):
        assert resolve_method("kernel", small_graph, rounds=64) == "kernel"
        assert resolve_method("tiled", small_graph, rounds=64) == "tiled"

    def test_auto_prefers_kernel_on_small_graphs(self, small_graph):
        assert resolve_method("auto", small_graph, rounds=64) == "kernel"

    def test_auto_falls_back_for_short_walks(self, small_graph):
        # Few rounds: step-simulating is cheaper than building M^t.
        assert resolve_method("auto", small_graph, rounds=1) == "tiled"

    def test_unknown_method_is_a_validation_error(self, small_graph):
        with pytest.raises(ValidationError, match="method"):
            resolve_method("warp", small_graph, rounds=8)

    def test_kernel_on_schedule_is_refused(self, schedule):
        with pytest.raises(ScheduleRefusedError):
            resolve_method("kernel", schedule, rounds=8)

    def test_auto_on_schedule_step_simulates(self, schedule):
        assert resolve_method("auto", schedule, rounds=8) == "tiled"


class TestShouldMemoize:
    def test_small_static_graph_memoizes(self, small_graph):
        assert should_memoize(small_graph) is True

    def test_schedule_never_memoizes(self, schedule):
        assert should_memoize(schedule) is False

    def test_cap_is_the_kernel_cap(self, small_graph):
        assert small_graph.num_nodes <= KERNEL_MAX_NODES


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
