"""Tests for the graph and schedule array encoding of the disk tier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule, EpochSelector
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph
from repro.graphs.io import from_arrays, to_arrays
from repro.scenario import artifacts


def _schedule(selector=None) -> DynamicGraphSchedule:
    graphs = [
        random_regular_graph(4, 24, rng=0),
        random_regular_graph(6, 24, rng=1),
    ]
    return DynamicGraphSchedule(graphs, selector)


def _through_disk(graph, tmp_path):
    path = tmp_path / "spill.npz"
    artifacts.write(path, to_arrays(graph), compress=True)
    return artifacts.read(path, from_arrays)


class TestGraphArrays:
    def test_round_trip_preserves_csr(self, tmp_path):
        graph = random_regular_graph(4, 16, rng=0)
        loaded = _through_disk(graph, tmp_path)
        assert isinstance(loaded, Graph)
        assert loaded.num_nodes == graph.num_nodes
        np.testing.assert_array_equal(loaded.indptr, graph.indptr)
        np.testing.assert_array_equal(loaded.indices, graph.indices)

    def test_foreign_arrays_are_a_key_error(self):
        with pytest.raises(KeyError):
            from_arrays({"payload": np.arange(3)})

    def test_non_graph_refused(self):
        with pytest.raises(ValidationError, match="DynamicGraphSchedule"):
            to_arrays(np.arange(3))

    def test_narrow_csr_loads_as_int64(self):
        graph = random_regular_graph(4, 16, rng=0)
        arrays = to_arrays(graph)
        arrays["indptr"] = arrays["indptr"].astype(np.int32)
        arrays["indices"] = arrays["indices"].astype(np.int32)
        loaded = from_arrays(arrays)
        assert loaded.indptr.dtype == np.int64
        assert loaded.indices.dtype == np.int64
        np.testing.assert_array_equal(loaded.indices, graph.indices)


class TestScheduleArrays:
    def test_round_robin_roundtrip(self, tmp_path):
        schedule = _schedule()
        loaded = _through_disk(schedule, tmp_path)
        assert isinstance(loaded, DynamicGraphSchedule)
        assert loaded.num_nodes == 24
        assert loaded.num_graphs == 2
        assert loaded.selector is None
        for original, restored in zip(schedule.graphs, loaded.graphs):
            assert (original.indptr == restored.indptr).all()
            assert (original.indices == restored.indices).all()

    def test_epoch_selector_roundtrip(self, tmp_path):
        schedule = _schedule(EpochSelector(3, 2))
        loaded = _through_disk(schedule, tmp_path)
        assert loaded.selector == EpochSelector(3, 2)
        for round_index in range(7):
            assert (
                loaded.graph_at(round_index).indices
                == schedule.graph_at(round_index).indices
            ).all()

    def test_roundtrip_preserves_collision_bits(self, tmp_path):
        """The restored schedule accounts bit-identically — the property
        that lets profile blocks resume against a reloaded topology."""
        from repro.testing.oracle import collision_profile_on_schedule

        schedule = _schedule()
        np.testing.assert_array_equal(
            collision_profile_on_schedule(_through_disk(schedule, tmp_path), 5),
            collision_profile_on_schedule(schedule, 5),
        )

    def test_custom_selector_refused(self):
        with pytest.raises(ValidationError, match="custom selector"):
            to_arrays(_schedule(lambda r: 0))

    def test_from_arrays_dispatches_both_kinds(self):
        graph = random_regular_graph(4, 16, rng=0)
        assert isinstance(from_arrays(to_arrays(graph)), Graph)
        assert isinstance(
            from_arrays(to_arrays(_schedule())), DynamicGraphSchedule
        )

    def test_unknown_selector_kind_refused(self, tmp_path):
        arrays = to_arrays(_schedule())
        arrays["selector_kind"] = np.array("bogus")
        with pytest.raises(ValidationError, match="unknown selector kind"):
            from_arrays(arrays)
        # On disk the same refusal is a cache miss, not an error.
        path = tmp_path / "spill.npz"
        artifacts.write(path, arrays, compress=True)
        assert artifacts.read(path, from_arrays) is None

    def test_missing_phase_is_a_key_error(self):
        arrays = to_arrays(_schedule())
        del arrays["graph1_indices"]
        with pytest.raises(KeyError):
            from_arrays(arrays)
