"""Tests for edge-list file I/O."""

from __future__ import annotations

import gzip

import pytest

from repro.exceptions import ValidationError
from repro.graphs.generators import random_regular_graph
from repro.graphs.io import read_edge_list, write_edge_list


class TestReadEdgeList:
    def test_basic(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# a comment\n0 1\n1 2\n2 0\n")
        loaded = read_edge_list(path)
        assert loaded.graph.num_nodes == 3
        assert loaded.graph.num_edges == 3

    def test_string_labels_relabeled(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("alice bob\nbob carol\n")
        loaded = read_edge_list(path)
        assert loaded.graph.num_nodes == 3
        assert loaded.labels == ("alice", "bob", "carol")
        assert loaded.node_of("carol") == 2

    def test_unknown_label_raises(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("a b\n")
        loaded = read_edge_list(path)
        with pytest.raises(ValidationError):
            loaded.node_of("zed")

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 0.5 2021\n1 2 0.7 2022\n")
        loaded = read_edge_list(path)
        assert loaded.graph.num_edges == 2

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 0\n0 1\n")
        loaded = read_edge_list(path)
        assert loaded.graph.num_edges == 1

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 0\n0 1\n")
        loaded = read_edge_list(path)
        assert loaded.graph.num_edges == 1

    def test_gzip(self, tmp_path):
        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0 1\n1 2\n")
        loaded = read_edge_list(path)
        assert loaded.graph.num_edges == 2

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("0,1\n1,2\n")
        loaded = read_edge_list(path, delimiter=",")
        assert loaded.graph.num_edges == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            read_edge_list(tmp_path / "nope.txt")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\njustone\n")
        with pytest.raises(ValidationError, match="at least two"):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# only comments\n")
        with pytest.raises(ValidationError, match="no edges"):
            read_edge_list(path)


class TestWriteEdgeList:
    def test_roundtrip(self, tmp_path):
        graph = random_regular_graph(4, 30, rng=0)
        path = tmp_path / "out.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        # Relabeling may permute nodes, but counts are invariant.
        assert loaded.graph.num_nodes == graph.num_nodes
        assert loaded.graph.num_edges == graph.num_edges

    def test_header_written_as_comments(self, tmp_path):
        graph = random_regular_graph(4, 10, rng=0)
        path = tmp_path / "out.txt"
        write_edge_list(graph, path, header="line one\nline two")
        content = path.read_text()
        assert content.startswith("# line one\n# line two\n")
        read_edge_list(path)  # still parseable

    def test_gzip_roundtrip(self, tmp_path):
        graph = random_regular_graph(4, 20, rng=0)
        path = tmp_path / "out.txt.gz"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.graph.num_edges == graph.num_edges


class TestScheduleNpz:
    """Schedule spill archives: round-trip, refusals, dispatch."""

    def _schedule(self, selector=None):
        from repro.graphs.dynamic import DynamicGraphSchedule

        graphs = [
            random_regular_graph(4, 24, rng=0),
            random_regular_graph(6, 24, rng=1),
        ]
        return DynamicGraphSchedule(graphs, selector)

    def test_round_robin_roundtrip(self, tmp_path):
        from repro.graphs.io import load_schedule_npz, save_schedule_npz

        schedule = self._schedule()
        path = tmp_path / "sched.npz"
        save_schedule_npz(schedule, path)
        loaded = load_schedule_npz(path)
        assert loaded.num_nodes == 24
        assert loaded.num_graphs == 2
        assert loaded.selector is None
        for original, restored in zip(schedule.graphs, loaded.graphs):
            assert (original.indptr == restored.indptr).all()
            assert (original.indices == restored.indices).all()

    def test_epoch_selector_roundtrip(self, tmp_path):
        from repro.graphs.dynamic import EpochSelector
        from repro.graphs.io import load_schedule_npz, save_schedule_npz

        schedule = self._schedule(EpochSelector(3, 2))
        path = tmp_path / "sched.npz"
        save_schedule_npz(schedule, path)
        loaded = load_schedule_npz(path)
        assert loaded.selector == EpochSelector(3, 2)
        for round_index in range(7):
            assert (
                loaded.graph_at(round_index).indices
                == schedule.graph_at(round_index).indices
            ).all()

    def test_roundtrip_preserves_collision_bits(self, tmp_path):
        """The restored schedule accounts bit-identically — the property
        that lets profile blocks resume against a reloaded topology."""
        from repro.graphs.io import load_schedule_npz, save_schedule_npz
        from repro.testing.oracle import collision_profile_on_schedule

        schedule = self._schedule()
        path = tmp_path / "sched.npz"
        save_schedule_npz(schedule, path)
        import numpy as np

        np.testing.assert_array_equal(
            collision_profile_on_schedule(load_schedule_npz(path), 5),
            collision_profile_on_schedule(schedule, 5),
        )

    def test_custom_selector_refused(self, tmp_path):
        from repro.graphs.io import save_schedule_npz

        schedule = self._schedule(lambda r: 0)
        with pytest.raises(ValidationError, match="custom selector"):
            save_schedule_npz(schedule, tmp_path / "sched.npz")

    def test_non_schedule_refused(self, tmp_path):
        from repro.graphs.io import save_schedule_npz

        with pytest.raises(ValidationError, match="DynamicGraphSchedule"):
            save_schedule_npz(random_regular_graph(4, 10, rng=0), tmp_path / "x.npz")

    def test_missing_file(self, tmp_path):
        from repro.graphs.io import load_schedule_npz

        with pytest.raises(ValidationError, match="no such file"):
            load_schedule_npz(tmp_path / "nope.npz")

    def test_load_spill_dispatches_both_kinds(self, tmp_path):
        from repro.graphs.dynamic import DynamicGraphSchedule
        from repro.graphs.graph import Graph
        from repro.graphs.io import (
            load_spill,
            save_graph_npz,
            save_schedule_npz,
        )

        graph = random_regular_graph(4, 16, rng=0)
        save_graph_npz(graph, tmp_path / "graph.npz")
        save_schedule_npz(self._schedule(), tmp_path / "sched.npz")
        assert isinstance(load_spill(tmp_path / "graph.npz"), Graph)
        assert isinstance(
            load_spill(tmp_path / "sched.npz"), DynamicGraphSchedule
        )
