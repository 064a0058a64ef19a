"""ResultsStore fundamentals: points, campaigns, artifacts, bench, gc."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.exceptions import ValidationError
from repro.scenario import GraphSpec, MechanismSpec, Scenario
from repro.store import (
    ResultsStore,
    code_version,
    open_store,
    outcome_from_payload,
    outcome_payload,
)
from repro.store.writer import _OUTCOME_TYPES


def _scenario(**overrides) -> Scenario:
    kwargs = dict(
        graph=GraphSpec.of("k_regular", degree=4, num_nodes=64),
        mechanism=MechanismSpec.of("rr", epsilon=1.0),
        rounds=4,
        seed=1,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


@pytest.fixture
def store(tmp_path):
    with ResultsStore(tmp_path / "results.sqlite") as handle:
        yield handle


class TestOpen:
    def test_creates_file_and_parents(self, tmp_path):
        path = tmp_path / "nested" / "deeper" / "results.sqlite"
        with ResultsStore(path) as store:
            assert store.point_count() == 0
        assert path.exists()

    def test_wal_mode(self, store):
        mode = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_open_store_coerces_path_and_passes_through_instances(
        self, tmp_path, store
    ):
        opened = open_store(tmp_path / "other.sqlite")
        assert isinstance(opened, ResultsStore)
        opened.close()
        assert open_store(store) is store

    def test_reopen_preserves_rows(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with ResultsStore(path) as store:
            store.record_point(_scenario(), "bound", {"epsilon": 1.0})
        with ResultsStore(path) as store:
            assert store.point_count() == 1


class TestPoints:
    def test_probe_misses_then_hits(self, store):
        scenario = _scenario()
        assert store.point_payload(scenario, "bound") is None
        store.record_point(scenario, "bound", {"epsilon": 2.5})
        assert store.point_payload(scenario, "bound") == {"epsilon": 2.5}

    def test_identity_is_scenario_mode_and_fingerprint(self, store):
        scenario = _scenario()
        store.record_point(scenario, "bound", {"epsilon": 1.0})
        # Same scenario, different mode: distinct row.
        store.record_point(scenario, "audit", {"epsilon_lower_bound": 0.5})
        # Different scenario: distinct row.
        store.record_point(_scenario(rounds=8), "bound", {"epsilon": 2.0})
        # Different fingerprint: distinct row, invisible to the default probe.
        store.record_point(
            scenario, "bound", {"epsilon": 9.0}, fingerprint="0.0.0+stale"
        )
        assert store.point_count() == 4
        assert store.point_payload(scenario, "bound") == {"epsilon": 1.0}
        assert (
            store.point_payload(scenario, "bound", fingerprint="0.0.0+stale")
            == {"epsilon": 9.0}
        )

    def test_duplicate_insert_adopts_existing_row(self, store):
        scenario = _scenario()
        first = store.record_point(scenario, "bound", {"epsilon": 1.0})
        second = store.record_point(scenario, "bound", {"epsilon": 777.0})
        assert first == second
        # First writer wins; the duplicate was ignored, not overwritten.
        assert store.point_payload(scenario, "bound") == {"epsilon": 1.0}

    def test_campaign_link_records_reuse_flag(self, store):
        scenario = _scenario()
        campaign = store.begin_campaign("c1")
        store.record_point(
            scenario, "bound", {"epsilon": 1.0}, campaign_id=campaign
        )
        other = store.begin_campaign("c2")
        store.record_point(
            scenario, "bound", {"epsilon": 1.0},
            campaign_id=other, reused=True,
        )
        rows = store._read(
            "SELECT campaign_id, reused FROM campaign_points"
            " ORDER BY campaign_id"
        )
        assert [(row["campaign_id"], row["reused"]) for row in rows] == [
            (campaign, 0), (other, 1),
        ]


class TestCampaigns:
    def test_listing_is_newest_first_with_counts(self, store):
        first = store.begin_campaign("alpha", preset="fast")
        second = store.begin_campaign("beta", meta={"mode": "bound"})
        store.record_point(
            _scenario(), "bound", {"epsilon": 1.0}, campaign_id=first
        )
        store.record_artifact(second, name="table1")
        listing = store.campaigns()
        assert [entry["name"] for entry in listing] == ["beta", "alpha"]
        assert listing[0]["meta"] == {"mode": "bound"}
        assert listing[0]["artifacts"] == 1 and listing[0]["points"] == 0
        assert listing[1]["preset"] == "fast"
        assert listing[1]["points"] == 1 and listing[1]["artifacts"] == 0

    def test_campaign_id_resolves_by_id_and_latest_name(self, store):
        old = store.begin_campaign("nightly")
        new = store.begin_campaign("nightly")
        assert store.campaign_id(old) == old
        assert store.campaign_id(str(old)) == old
        assert store.campaign_id("nightly") == new

    def test_listing_filters_by_name(self, store):
        store.begin_campaign("job-1", meta={"job": {"id": "job-1"}})
        store.begin_campaign("job-10")
        latest = store.begin_campaign("job-1", meta={"job": {"id": "job-1"}})
        entries = store.campaigns("job-1")
        assert [entry["id"] for entry in entries] == [latest, latest - 2]
        assert entries[0]["meta"] == {"job": {"id": "job-1"}}
        assert store.campaigns("job-2") == []
        assert len(store.campaigns()) == 3

    def test_campaign_id_miss_raises(self, store):
        with pytest.raises(ValidationError, match="no campaign"):
            store.campaign_id("never-ran")


class TestBenchSamples:
    def test_baseline_is_latest_per_name(self, store):
        store.record_bench_samples({"a": 1.0, "b": 2.0}, source="ci")
        store.record_bench_samples({"a": 1.5})
        assert store.bench_baseline() == {"a": 1.5, "b": 2.0}

    def test_trajectory_preserves_history(self, store):
        store.record_bench_samples({"a": 1.0})
        store.record_bench_samples({"a": 1.5})
        means = [row["mean_seconds"] for row in store.bench_trajectory("a")]
        assert means == [1.0, 1.5]


class TestGc:
    def test_reclaims_stale_fingerprints_only(self, store):
        live = _scenario()
        store.record_point(live, "bound", {"epsilon": 1.0})
        stale_campaign = store.begin_campaign("old", fingerprint="0.0.0+old")
        store.record_point(
            _scenario(rounds=16), "bound", {"epsilon": 2.0},
            campaign_id=stale_campaign, fingerprint="0.0.0+old",
        )
        store.record_bench_samples({"a": 1.0}, fingerprint="0.0.0+old")
        store.record_bench_samples({"a": 2.0})

        preview = store.gc(dry_run=True)
        assert preview["points"] == 1 and store.point_count() == 2

        counts = store.gc()
        assert counts["points"] == 1
        assert counts["campaigns"] == 1
        assert store.point_count() == 1
        assert store.point_payload(live, "bound") == {"epsilon": 1.0}
        assert store.campaigns() == []
        # The stale bench sample survived only because it was a's latest
        # until the second record; after gc the latest remains.
        assert store.bench_baseline() == {"a": 2.0}


class TestOutcomeCodec:
    def test_every_mode_round_trips(self):
        import dataclasses

        for mode, cls in _OUTCOME_TYPES.items():
            fields = dataclasses.fields(cls)
            assert all(
                field.init for field in fields
            ), f"{mode} outcome {cls.__name__} must rebuild via cls(**asdict)"

    def test_rejects_non_dataclass(self):
        with pytest.raises(ValidationError, match="cannot store outcome"):
            outcome_payload({"not": "a dataclass"})

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown stored mode"):
            outcome_from_payload("telepathy", {})


class TestErrors:
    def test_not_a_database_raises_store_error(self, tmp_path):
        from repro.exceptions import StoreError

        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"definitely not sqlite" * 100)
        with pytest.raises(StoreError):
            ResultsStore(path)

    def test_stored_json_is_canonical(self, store, tmp_path):
        scenario = _scenario()
        store.record_point(
            scenario, "bound", {"epsilon": 1.0}, coordinates={"rounds": 4}
        )
        connection = sqlite3.connect(store.path)
        scenario_json, axes = connection.execute(
            "SELECT scenario, axes FROM points"
        ).fetchone()
        connection.close()
        assert json.loads(scenario_json) == scenario.to_dict()
        assert json.loads(axes) == {"rounds": 4}

    def test_code_version_shape(self):
        version = code_version()
        release, _, digest = version.partition("+")
        assert release and len(digest) == 16
        assert all(char in "0123456789abcdef" for char in digest)
