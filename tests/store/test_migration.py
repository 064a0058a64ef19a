"""Schema versioning: migrate known pasts, refuse unknown futures."""

from __future__ import annotations

import sqlite3

import pytest

from repro.exceptions import StoreVersionError
from repro.store import SCHEMA_VERSION, ResultsStore
from repro.store.schema import _DDL


#: The serving-tier job table versions 2 and 3 had.
_JOBS_DDL = """
CREATE TABLE jobs (
    id TEXT PRIMARY KEY, kind TEXT NOT NULL, status TEXT NOT NULL,
    scenario TEXT, result TEXT, error TEXT, submitted REAL, finished REAL,
    code_version TEXT
);
"""


def _make_store(path, version: int) -> None:
    """Write a store as schema ``version`` (1, 2 or 3) left it."""
    ddl = _DDL
    if version < 3:
        # v1/v2 campaigns had no lifecycle status.
        ddl = ddl.replace(
            "meta            TEXT,\n"
            "    status          TEXT NOT NULL DEFAULT 'complete'",
            "meta            TEXT",
        )
        assert "DEFAULT 'complete'" not in ddl, "status rewind failed"
    if version >= 2:
        ddl += _JOBS_DDL
    connection = sqlite3.connect(path)
    connection.executescript(ddl)
    connection.execute(f"PRAGMA user_version = {version}")
    connection.commit()
    connection.close()


def _tables(path) -> set:
    connection = sqlite3.connect(path)
    try:
        return {
            row[0] for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")
        }
    finally:
        connection.close()


class TestMigration:
    def test_v1_upgrades_in_place(self, tmp_path):
        path = tmp_path / "old.sqlite"
        _make_store(path, 1)
        with ResultsStore(path) as store:
            store.begin_campaign("post-migration")
            assert store.campaigns()[0]["status"] == "running"
        # No jobs table on the way through; the version is stamped.
        assert "jobs" not in _tables(path)
        connection = sqlite3.connect(path)
        assert (
            connection.execute("PRAGMA user_version").fetchone()[0]
            == SCHEMA_VERSION
        )
        connection.close()

    def test_v1_rows_survive_migration(self, tmp_path):
        path = tmp_path / "old.sqlite"
        _make_store(path, 1)
        connection = sqlite3.connect(path)
        connection.execute(
            "INSERT INTO points (scenario_hash, mode, code_version,"
            " graph_kind, scenario, payload, created_at)"
            " VALUES ('h', 'bound', '1.0.0+x', 'cycle', '{}', '{}', 'now')"
        )
        connection.commit()
        connection.close()
        with ResultsStore(path) as store:
            assert store.point_count() == 1

    def test_v2_gains_campaign_status(self, tmp_path):
        path = tmp_path / "v2.sqlite"
        _make_store(path, 2)
        connection = sqlite3.connect(path)
        connection.execute(
            "INSERT INTO campaigns (name, code_version, created_at)"
            " VALUES ('old-sweep', '1.0.0+x', 'now')"
        )
        connection.commit()
        connection.close()
        with ResultsStore(path) as store:
            # Pre-migration campaigns finished the only way a v2 sweep
            # could persist: by completing.
            entries = store.campaigns()
            assert entries[0]["status"] == "complete"
            fresh = store.begin_campaign("new-sweep")
            assert store.campaigns()[0]["id"] == fresh
            assert store.campaigns()[0]["status"] == "running"
        connection = sqlite3.connect(path)
        assert (
            connection.execute("PRAGMA user_version").fetchone()[0]
            == SCHEMA_VERSION
        )
        connection.close()

    def test_v3_drops_the_jobs_table(self, tmp_path):
        # v4 keeps served jobs as campaigns plus points; the old job
        # rows go, every other row stays.
        path = tmp_path / "v3.sqlite"
        _make_store(path, 3)
        connection = sqlite3.connect(path)
        connection.execute(
            "INSERT INTO jobs (id, kind, status) VALUES ('job-1', 'run', 'done')"
        )
        connection.execute(
            "INSERT INTO campaigns (name, code_version, created_at, status)"
            " VALUES ('old-sweep', '1.0.0+x', 'now', 'interrupted')"
        )
        connection.commit()
        connection.close()
        with ResultsStore(path) as store:
            assert store.campaigns()[0]["status"] == "interrupted"
        assert "jobs" not in _tables(path)
        assert SCHEMA_VERSION == 4

    def test_v1_campaigns_gain_status_too(self, tmp_path):
        path = tmp_path / "old.sqlite"
        _make_store(path, 1)
        with ResultsStore(path) as store:
            campaign = store.begin_campaign("post-migration")
            store.finish_campaign(campaign, status="interrupted")
            assert store.campaigns()[0]["status"] == "interrupted"

    def test_newer_schema_refuses_loudly(self, tmp_path):
        path = tmp_path / "future.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 97}")
        connection.commit()
        connection.close()
        with pytest.raises(StoreVersionError, match="newer than this code"):
            ResultsStore(path)

    def test_foreign_sqlite_file_refuses(self, tmp_path):
        path = tmp_path / "other-app.sqlite"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE shopping_list (item TEXT)")
        connection.commit()
        connection.close()
        with pytest.raises(StoreVersionError, match="not a repro results"):
            ResultsStore(path)

    def test_current_version_reopens_silently(self, tmp_path):
        path = tmp_path / "current.sqlite"
        ResultsStore(path).close()
        with ResultsStore(path) as store:
            assert store.point_count() == 0
