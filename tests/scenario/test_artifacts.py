"""The code-versioned artifact cache: graph spills and profile panels.

A spilled graph, schedule or panel answers only for the code that wrote
it, and a damaged file is a miss on every tier — the run rebuilds,
bit-identically, instead of failing.
"""

from __future__ import annotations

import sys
import threading
import zipfile

import numpy as np
import pytest

from repro import api
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import random_regular_graph
from repro.scenario import artifacts, clear_graph_cache
from repro.scenario.profile import ProfileStore, profile_stats
from repro.store import fingerprint
from repro.testing.oracle import collision_profile_on_schedule
from tests.vectors.handlers import run_parts

RUN_SCENARIO = {
    "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "values": {"kind": "bernoulli", "params": {"rate": 0.3}},
    "rounds": 6,
    "seed": 3,
}

SCHEDULE_SCENARIO = {
    "graph": {"kind": "schedule", "params": {"graphs": [
        {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
        {"kind": "cycle", "params": {"num_nodes": 64}},
    ]}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "rounds": 6,
    "seed": 3,
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def _other_code_version(monkeypatch):
    """Run the rest of the test as if the sources had been edited."""
    monkeypatch.setattr(fingerprint, "_CACHED", "0.0.0+0123456789abcdef")


def _graph_counts():
    stats = api.cache_stats()
    return stats["builds"], stats["disk_hits"]


def _decode(archive):
    return np.asarray(archive["values"])


class TestReaderWriter:
    def test_round_trip_leaves_only_the_file(self, tmp_path):
        path = tmp_path / "sub" / "a.npz"
        written = artifacts.write(path, {"values": np.arange(5)}, compress=True)
        assert written == path.stat().st_size
        assert list(path.parent.iterdir()) == [path]
        np.testing.assert_array_equal(
            artifacts.read(path, _decode), np.arange(5)
        )

    def test_missing_file_is_a_miss(self, tmp_path):
        assert artifacts.read(tmp_path / "nope.npz", _decode) is None

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "foreign", "empty", "bit_flipped"]
    )
    def test_damaged_file_is_a_miss_and_removed(self, tmp_path, damage):
        path = tmp_path / "a.npz"
        artifacts.write(
            path,
            {"other" if damage == "foreign" else "values": np.arange(5000)},
            compress=damage == "bit_flipped",
        )
        data = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(data[: len(data) // 2])
        elif damage == "garbage":
            path.write_bytes(b"not an npz archive")
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "bit_flipped":
            # Inside the deflated member: the zip directory still parses.
            flipped = bytearray(data)
            for index in range(100, 140):
                flipped[index] ^= 0xFF
            path.write_bytes(bytes(flipped))
        assert artifacts.read(path, _decode) is None
        assert not path.exists()

    def test_decode_refusal_is_a_miss_that_keeps_the_file(self, tmp_path):
        path = tmp_path / "a.npz"
        artifacts.write(path, {"values": np.arange(5)}, compress=False)
        assert artifacts.read(path, lambda archive: None) is None
        assert path.exists()

    @pytest.mark.parametrize("compress", [True, False])
    def test_compression_is_the_callers_choice(self, tmp_path, compress):
        path = tmp_path / "a.npz"
        artifacts.write(path, {"values": np.zeros(4096)}, compress=compress)
        with zipfile.ZipFile(path) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {
            zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
        }

    def test_failed_write_keeps_the_old_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "a.npz"
        artifacts.write(path, {"values": np.arange(5)}, compress=False)

        def torn_save(stream, **arrays):
            stream.write(b"PK\x03\x04 torn")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_save)
        with pytest.raises(OSError, match="disk full"):
            artifacts.write(path, {"values": np.arange(9)}, compress=False)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [path]
        np.testing.assert_array_equal(
            artifacts.read(path, _decode), np.arange(5)
        )

    def test_concurrent_writers_never_expose_a_partial_file(self, tmp_path):
        """More writers than cores rewrite one name while readers poll
        it: every read after the first write sees the whole array."""
        path = tmp_path / "shared.npz"
        values = np.arange(20_000)
        artifacts.write(path, {"values": values}, compress=True)
        misses = []

        def writer():
            for _ in range(20):
                artifacts.write(path, {"values": values}, compress=True)

        def reader():
            for _ in range(40):
                got = artifacts.read(path, _decode)
                if got is None or not np.array_equal(got, values):
                    misses.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=target)
                for target in [writer] * 6 + [reader] * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert misses == []
        assert list(tmp_path.iterdir()) == [path]

    def test_name_covers_kind_identity_and_code_version(self, monkeypatch):
        name = artifacts.artifact_name("graph", "key")
        assert artifacts.artifact_name("panel", "key") != name
        assert artifacts.artifact_name("graph", "other") != name
        _other_code_version(monkeypatch)
        assert artifacts.artifact_name("graph", "key") != name

    def test_name_is_stable_within_one_code_version(self):
        name = artifacts.artifact_name("graph", "key")
        assert artifacts.artifact_name("graph", "key") == name
        assert len(name) == 32
        int(name, 16)


class TestSpillRoot:
    def test_graphs_live_in_the_attached_directory(self, tmp_path):
        path = artifacts.graph_path(tmp_path, "key")
        assert path.parent == tmp_path
        assert path.name == f"{artifacts.artifact_name('graph', 'key')}.npz"

    def test_panels_live_under_profiles(self, tmp_path):
        directory = artifacts.panel_directory(tmp_path, "store")
        assert directory == (
            tmp_path / "profiles" / artifacts.artifact_name("panel", "store")
        )

    def test_fallback_is_one_temp_directory_per_process(self):
        first = artifacts.panel_directory(None, "store").parents[1]
        assert artifacts.panel_directory(None, "other").parents[1] == first
        assert first.is_dir()
        assert first.name.startswith("repro-spill-")

    def test_removed_fallback_is_made_again(self, tmp_path, monkeypatch):
        gone = tmp_path / "gone"
        monkeypatch.setattr(artifacts, "_FALLBACK_ROOT", gone)
        directory = artifacts.panel_directory(None, "store")
        assert directory.parents[1] != gone
        assert directory.parents[1].is_dir()


class TestGraphTier:
    def test_truncated_graph_spill_rebuilds_bit_identically(self, tmp_path):
        scenario = api.parse_scenario(RUN_SCENARIO)
        api.attach_spill(tmp_path)
        first = api.run(scenario)
        path = api.spill_graph(scenario)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        clear_graph_cache(detach_spill=False)
        builds, disk_hits = _graph_counts()
        again = api.run(scenario)
        assert _graph_counts() == (builds + 1, disk_hits)
        assert run_parts(again) == run_parts(first)

    def test_truncated_schedule_spill_rebuilds_the_same_bound(self, tmp_path):
        scenario = api.parse_scenario(SCHEDULE_SCENARIO)
        api.attach_spill(tmp_path)
        expected = api.bound(scenario).epsilon
        path = api.spill_graph(scenario)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        clear_graph_cache(detach_spill=False)
        builds, disk_hits = _graph_counts()
        assert api.bound(scenario).epsilon == expected
        assert _graph_counts() == (builds + 1, disk_hits)

    def test_foreign_file_at_the_spill_name_is_replaced(self, tmp_path):
        """A file that is not a graph is a miss; the next spill writes
        a good one in its place, which the next process then loads."""
        scenario = api.parse_scenario(RUN_SCENARIO)
        api.attach_spill(tmp_path)
        first = api.run(scenario)
        path = api.spill_graph(scenario)
        artifacts.write(path, {"payload": np.arange(3)}, compress=True)
        clear_graph_cache(detach_spill=False)
        builds, disk_hits = _graph_counts()
        assert run_parts(api.run(scenario)) == run_parts(first)
        assert _graph_counts() == (builds + 1, disk_hits)
        assert api.spill_graph(scenario) == path
        clear_graph_cache(detach_spill=False)
        assert run_parts(api.run(scenario)) == run_parts(first)
        assert _graph_counts() == (builds + 1, disk_hits + 1)

    @pytest.mark.parametrize(
        "payload", [RUN_SCENARIO, SCHEDULE_SCENARIO], ids=["graph", "schedule"]
    )
    def test_other_code_version_is_ignored_and_rebuilt(
        self, tmp_path, monkeypatch, payload
    ):
        scenario = api.parse_scenario(payload)
        api.attach_spill(tmp_path)
        expected = api.bound(scenario).epsilon
        assert api.spill_graph(scenario) is not None
        clear_graph_cache(detach_spill=False)
        builds, disk_hits = _graph_counts()
        api.bound(scenario)  # same code: the spill answers
        assert _graph_counts() == (builds, disk_hits + 1)

        clear_graph_cache(detach_spill=False)
        with monkeypatch.context() as patch:
            _other_code_version(patch)
            assert api.bound(scenario).epsilon == expected
        assert _graph_counts() == (builds + 1, disk_hits + 1)


def _schedule() -> DynamicGraphSchedule:
    return DynamicGraphSchedule([
        random_regular_graph(4, 30, rng=0),
        random_regular_graph(6, 30, rng=1),
    ])


class TestPanelTier:
    def _collisions(self, directory):
        store = ProfileStore(
            _schedule(), identity="versioned", block_size=8,
            directory=directory,
        )
        before = profile_stats()
        collisions, _ = store.collisions(5)
        after = profile_stats()
        return collisions, {
            name: after[name] - before[name]
            for name in ("blocks_evolved", "blocks_resumed")
        }

    def test_truncated_block_is_evolved_again(self, tmp_path):
        expected = collision_profile_on_schedule(_schedule(), 5)
        self._collisions(tmp_path)
        block = next(iter(sorted((tmp_path / "profiles").rglob("*.npz"))))
        data = block.read_bytes()
        block.write_bytes(data[: len(data) // 2])
        recovered, counted = self._collisions(tmp_path)
        assert counted == {"blocks_evolved": 1, "blocks_resumed": 3}
        np.testing.assert_array_equal(recovered, expected)

    def test_other_code_version_is_ignored_and_rebuilt(
        self, tmp_path, monkeypatch
    ):
        expected = collision_profile_on_schedule(_schedule(), 5)
        cold, _ = self._collisions(tmp_path)
        _, counted = self._collisions(tmp_path)
        assert counted == {"blocks_evolved": 0, "blocks_resumed": 4}
        _other_code_version(monkeypatch)
        rebuilt, counted = self._collisions(tmp_path)
        assert counted == {"blocks_evolved": 4, "blocks_resumed": 0}
        np.testing.assert_array_equal(cold, expected)
        np.testing.assert_array_equal(rebuilt, expected)
