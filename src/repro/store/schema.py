"""The campaign store's relational schema (SQLite, stdlib only).

The design move — after DMR-XPath's encoding of tree structure into a
relational schema so queries become SQL — is to give every sweep point
a *flat* row whose identity is ``(scenario_hash, mode, code_version)``
and whose structure (grid coordinates, the full scenario, the outcome
payload) rides along as JSON1-queryable columns.  Cross-campaign
aggregates are then ``json_extract`` + ``GROUP BY`` instead of crawling
nested result dicts, and incremental re-runs are a unique-key probe.

Tables
------
``campaigns``
    One row per recorded run of a sweep or experiments campaign.
``points``
    One row per *distinct* computed result; the unique key is what
    makes re-runs incremental.
``campaign_points``
    Which points each campaign observed (computed or reused) — the
    relation ``results diff`` compares.
``artifacts``
    One row per paper artifact a campaign regenerated.
``bench_samples``
    The CI benchmark trajectory (mean seconds per bench per run).
(Versions 2 and 3 also kept served jobs in ``jobs``; version 4 keeps
each as a campaign plus its point, and drops that table.)

Versioning lives in ``PRAGMA user_version``.  Opening a store written
by a newer schema refuses loudly; an older version with a registered
migration upgrades in place inside one transaction; anything else
(unknown version, a non-store SQLite file) refuses too.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict

from repro.exceptions import StoreVersionError

__all__ = ["SCHEMA_VERSION", "ensure_schema"]

#: Current on-disk schema version (PRAGMA user_version).
SCHEMA_VERSION = 4

#: DDL for a fresh store at :data:`SCHEMA_VERSION`.
_DDL = """
CREATE TABLE IF NOT EXISTS campaigns (
    id              INTEGER PRIMARY KEY,
    name            TEXT NOT NULL,
    preset          TEXT,
    code_version    TEXT NOT NULL,
    created_at      TEXT NOT NULL,
    meta            TEXT,
    status          TEXT NOT NULL DEFAULT 'complete'
);

CREATE TABLE IF NOT EXISTS points (
    id              INTEGER PRIMARY KEY,
    scenario_hash   TEXT NOT NULL,
    mode            TEXT NOT NULL,
    code_version    TEXT NOT NULL,
    graph_kind      TEXT NOT NULL,
    scenario        TEXT NOT NULL,
    axes            TEXT NOT NULL DEFAULT '{}',
    payload         TEXT NOT NULL,
    elapsed_seconds REAL,
    created_at      TEXT NOT NULL,
    UNIQUE (scenario_hash, mode, code_version)
);
CREATE INDEX IF NOT EXISTS idx_points_graph_kind ON points (graph_kind);
CREATE INDEX IF NOT EXISTS idx_points_mode ON points (mode);

CREATE TABLE IF NOT EXISTS campaign_points (
    campaign_id     INTEGER NOT NULL REFERENCES campaigns (id),
    point_id        INTEGER NOT NULL REFERENCES points (id),
    reused          INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign_id, point_id)
);

CREATE TABLE IF NOT EXISTS artifacts (
    id              INTEGER PRIMARY KEY,
    campaign_id     INTEGER NOT NULL REFERENCES campaigns (id),
    name            TEXT NOT NULL,
    title           TEXT,
    preset          TEXT,
    path            TEXT,
    bytes           INTEGER,
    elapsed_seconds REAL,
    created_at      TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS bench_samples (
    id              INTEGER PRIMARY KEY,
    name            TEXT NOT NULL,
    mean_seconds    REAL NOT NULL,
    code_version    TEXT NOT NULL,
    source          TEXT,
    created_at      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_bench_name ON bench_samples (name);
"""


def _migrate_2_to_3(connection: sqlite3.Connection) -> None:
    """v2 campaigns had no lifecycle: add the ``status`` column.

    Existing campaigns predate fault-tolerant sweeps, so they all ended
    the only way a v2 sweep could persist anything — by finishing —
    hence the ``'complete'`` default.  Guarded by ``table_info`` so a
    half-applied upgrade (or a hand-patched store) migrates cleanly.
    """
    columns = {
        row[1]
        for row in connection.execute("PRAGMA table_info(campaigns)")
    }
    if "status" not in columns:
        connection.execute(
            "ALTER TABLE campaigns ADD COLUMN status TEXT NOT NULL"
            " DEFAULT 'complete'"
        )


def _migrate_3_to_4(connection: sqlite3.Connection) -> None:
    """v4 keeps a finished serving-tier job as a campaign plus its
    point: drop the ``jobs`` table that held them before."""
    connection.execute("DROP TABLE IF EXISTS jobs")


#: version -> in-place migration to version + 1, applied successively.
MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {
    1: lambda connection: None,  # v2's jobs table: v4 drops it again
    2: _migrate_2_to_3,
    3: _migrate_3_to_4,
}


def ensure_schema(connection: sqlite3.Connection) -> None:
    """Create, migrate, or refuse — leave ``connection`` at the current
    schema version.

    A fresh file (``user_version == 0`` and an empty ``sqlite_master``)
    gets the full DDL.  A known older version migrates step by step in
    one transaction.  A newer version, or a version-0 file that already
    has tables (some other application's database), raises
    :class:`~repro.exceptions.StoreVersionError` instead of guessing.
    """
    version = connection.execute("PRAGMA user_version").fetchone()[0]
    if version == SCHEMA_VERSION:
        return
    if version > SCHEMA_VERSION:
        raise StoreVersionError(
            f"results store schema version {version} is newer than this "
            f"code understands (version {SCHEMA_VERSION}); upgrade repro "
            "or use a fresh store file"
        )
    if version == 0:
        tables = connection.execute(
            "SELECT count(*) FROM sqlite_master WHERE type = 'table'"
        ).fetchone()[0]
        if tables:
            raise StoreVersionError(
                "file is a SQLite database but not a repro results store "
                "(it has tables yet no schema version); refusing to adopt it"
            )
        with connection:
            connection.executescript(_DDL)
            connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        return
    if version not in MIGRATIONS:
        raise StoreVersionError(
            f"results store schema version {version} has no migration "
            f"path to {SCHEMA_VERSION}; export what you need and start a "
            "fresh store"
        )
    with connection:
        while version < SCHEMA_VERSION:
            MIGRATIONS[version](connection)
            version += 1
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
