""":class:`ResultsStore` — the persistent, queryable campaign store.

One SQLite file holds every result a host has ever computed: sweep
points keyed by ``(scenario_hash, mode, code_version)``, the campaigns
that produced or reused them, regenerated paper artifacts, the CI
benchmark trajectory.  The serving tier keeps each finished job as a
campaign named after it plus the point it computed.  The store is the
substrate for three behaviors the JSON-pile output format could not
support:

* **incremental re-runs** — ``repro.sweep(store=...)`` probes the
  unique key before executing a grid point and re-runs only what is
  missing (a code edit rotates the fingerprint, so stale results never
  satisfy a lookup);
* **cross-campaign queries** — ``repro.store.query`` answers "eps vs
  rounds for every graph kind we've ever run" as one SQL aggregate;
* **regression diffs** — two campaigns' observed point sets compare
  row by row (``results diff``).

Concurrency: connections open in WAL mode with a busy timeout, every
write runs in its own immediate transaction under an in-process lock,
and point inserts are ``INSERT OR IGNORE`` on the unique key — two
processes sweeping into one store file interleave without losing
points (one wins the insert, the other adopts the existing row).
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.amplification.network_shuffle import NetworkShuffleBound
from repro.auditing.auditor import AuditResult
from repro.exceptions import StoreError, ValidationError
from repro.scenario.cache import scenario_hash
from repro.scenario.spec import Scenario
from repro.scenario.sweep import RunDigest
from repro.store.fingerprint import code_version
from repro.store.schema import ensure_schema

__all__ = [
    "CAMPAIGN_STATUSES",
    "ResultsStore",
    "open_store",
    "outcome_from_payload",
    "outcome_payload",
]

#: How long a connection waits on another writer before raising.
_BUSY_TIMEOUT_SECONDS = 30.0

#: How many times a write that still hits ``database is locked`` after
#: the busy timeout is retried before surfacing a :class:`StoreError`.
_LOCKED_RETRIES = 3

#: Base of the exponential sleep between locked-write retries.
_LOCKED_BACKOFF_SECONDS = 0.05

#: Campaign lifecycle states recorded in ``campaigns.status``.
CAMPAIGN_STATUSES = ("running", "complete", "interrupted")


def _is_locked(error: sqlite3.OperationalError) -> bool:
    """Whether an OperationalError is SQLite's lock/busy contention."""
    text = str(error).lower()
    return "database is locked" in text or "database is busy" in text


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ----------------------------------------------------------------------
# Outcome <-> JSON payload codec
# ----------------------------------------------------------------------
#: mode -> the dataclass a stored payload reconstructs into.  All three
#: are flat frozen dataclasses of scalars, so ``asdict``/``cls(**d)``
#: round-trips exactly (``stationary_bound`` shares bound's shape).
_OUTCOME_TYPES = {
    "run": RunDigest,
    "bound": NetworkShuffleBound,
    "stationary_bound": NetworkShuffleBound,
    "audit": AuditResult,
}


def outcome_payload(outcome: Any) -> Dict[str, Any]:
    """JSON-able dict of a sweep outcome (digest/bound/audit)."""
    if not dataclasses.is_dataclass(outcome):
        raise ValidationError(
            f"cannot store outcome of type {type(outcome).__name__}; "
            "store-backed sweeps return digests (results='digest')"
        )
    return dataclasses.asdict(outcome)


def outcome_from_payload(mode: str, payload: Mapping[str, Any]) -> Any:
    """Rebuild the typed outcome a stored ``mode`` payload represents."""
    if mode not in _OUTCOME_TYPES:
        raise ValidationError(
            f"unknown stored mode {mode!r}; known: {sorted(_OUTCOME_TYPES)}"
        )
    return _OUTCOME_TYPES[mode](**payload)


class ResultsStore:
    """A SQLite-backed results database (see the module docstring).

    Open with a path (created on first use) and close explicitly or via
    ``with``; one instance is safe to share across threads (reads and
    writes serialize under an in-process lock).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            str(self.path),
            timeout=_BUSY_TIMEOUT_SECONDS,
            check_same_thread=False,
            isolation_level=None,  # autocommit; writes use explicit BEGIN
        )
        self._connection.row_factory = sqlite3.Row
        try:
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
            self._connection.execute("PRAGMA foreign_keys = ON")
            self._connection.execute(
                f"PRAGMA busy_timeout = {int(_BUSY_TIMEOUT_SECONDS * 1000)}"
            )
            ensure_schema(self._connection)
        except sqlite3.DatabaseError as error:
            self._connection.close()
            raise StoreError(
                f"cannot open results store {self.path}: {error}"
            ) from error
        except Exception:
            self._connection.close()
            raise

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- low-level helpers ---------------------------------------------
    def _transaction(self, body):
        """Run ``body(connection)`` in one immediate transaction.

        Lock contention that survives SQLite's own busy timeout (the
        30s ``busy_timeout`` PRAGMA) is retried a bounded number of
        times with exponential backoff, then surfaced as a
        :class:`StoreError` naming the store file — callers never see a
        raw ``sqlite3.OperationalError`` for a locked database.
        """
        for attempt in range(_LOCKED_RETRIES + 1):
            with self._lock:
                began = False
                try:
                    self._connection.execute("BEGIN IMMEDIATE")
                    began = True
                    result = body(self._connection)
                    self._connection.execute("COMMIT")
                    return result
                except sqlite3.OperationalError as error:
                    if began:
                        self._connection.execute("ROLLBACK")
                    if not _is_locked(error):
                        raise
                    if attempt >= _LOCKED_RETRIES:
                        raise StoreError(
                            f"results store {self.path} stayed locked "
                            f"through {_LOCKED_RETRIES} retries (another "
                            "long-running writer is holding it): "
                            f"{error}"
                        ) from error
                except BaseException:
                    if began:
                        self._connection.execute("ROLLBACK")
                    raise
            time.sleep(_LOCKED_BACKOFF_SECONDS * (2 ** attempt))

    def _write(self, sql: str, parameters: tuple = ()) -> sqlite3.Cursor:
        """One write statement in its own immediate transaction."""
        return self._transaction(
            lambda connection: connection.execute(sql, parameters)
        )

    def _read(self, sql: str, parameters: tuple = ()) -> List[sqlite3.Row]:
        with self._lock:
            return self._connection.execute(sql, parameters).fetchall()

    # -- campaigns -----------------------------------------------------
    def begin_campaign(
        self,
        name: str,
        *,
        preset: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
        fingerprint: Optional[str] = None,
        status: str = "running",
    ) -> int:
        """Record a new campaign row (status ``running``); returns its id.

        The caller that began the campaign owns its lifecycle: call
        :meth:`finish_campaign` when it ends.  A campaign still
        ``running`` in a process that no longer exists died hard —
        which is exactly what the status column is for.
        """
        if status not in CAMPAIGN_STATUSES:
            raise ValidationError(
                f"campaign status must be one of {CAMPAIGN_STATUSES}, "
                f"got {status!r}"
            )
        cursor = self._write(
            "INSERT INTO campaigns (name, preset, code_version, created_at,"
            " meta, status) VALUES (?, ?, ?, ?, ?, ?)",
            (
                str(name),
                preset,
                fingerprint or code_version(),
                _now(),
                None if meta is None else json.dumps(meta, sort_keys=True),
                status,
            ),
        )
        return int(cursor.lastrowid)

    def finish_campaign(
        self, campaign_id: int, *, status: str = "complete"
    ) -> None:
        """Finalize a campaign's lifecycle status.

        ``complete`` means its sweep ran to the end (collected failures
        included); ``interrupted`` means it aborted with an error.
        """
        if status not in CAMPAIGN_STATUSES:
            raise ValidationError(
                f"campaign status must be one of {CAMPAIGN_STATUSES}, "
                f"got {status!r}"
            )
        self._write(
            "UPDATE campaigns SET status = ? WHERE id = ?",
            (status, int(campaign_id)),
        )

    def campaigns(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every campaign (or every one named ``name``), newest first,
        with its observed point count."""
        rows = self._read(
            """
            SELECT c.id, c.name, c.preset, c.code_version, c.created_at,
                   c.meta, c.status,
                   (SELECT count(*) FROM campaign_points cp
                     WHERE cp.campaign_id = c.id) AS points,
                   (SELECT count(*) FROM artifacts a
                     WHERE a.campaign_id = c.id) AS artifacts
            FROM campaigns c WHERE ? IS NULL OR c.name = ?
            ORDER BY c.id DESC
            """,
            (name, name),
        )
        result = []
        for row in rows:
            entry = dict(row)
            entry["meta"] = (
                None if entry["meta"] is None else json.loads(entry["meta"])
            )
            result.append(entry)
        return result

    def campaign_id(self, reference: Union[int, str]) -> int:
        """Resolve a campaign by id, or by name (latest wins)."""
        if isinstance(reference, int) or (
            isinstance(reference, str) and reference.isdigit()
        ):
            rows = self._read(
                "SELECT id FROM campaigns WHERE id = ?", (int(reference),)
            )
        else:
            rows = self._read(
                "SELECT id FROM campaigns WHERE name = ? "
                "ORDER BY id DESC LIMIT 1",
                (str(reference),),
            )
        if not rows:
            raise ValidationError(
                f"no campaign {reference!r} in store {self.path}"
            )
        return int(rows[0]["id"])

    # -- points --------------------------------------------------------
    def point_payload(
        self,
        scenario: Scenario,
        mode: str,
        *,
        fingerprint: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """The stored payload for (scenario, mode) under the current
        (or given) code fingerprint — ``None`` on a miss.

        This is the incremental re-run probe: a hit means the exact
        scenario was already computed in this mode by this code.
        """
        rows = self._read(
            "SELECT payload FROM points WHERE scenario_hash = ? AND"
            " mode = ? AND code_version = ?",
            (scenario_hash(scenario), mode, fingerprint or code_version()),
        )
        if not rows:
            return None
        return json.loads(rows[0]["payload"])

    def record_point(
        self,
        scenario: Scenario,
        mode: str,
        payload: Mapping[str, Any],
        *,
        coordinates: Optional[Mapping[str, Any]] = None,
        campaign_id: Optional[int] = None,
        elapsed_seconds: Optional[float] = None,
        fingerprint: Optional[str] = None,
        reused: bool = False,
    ) -> int:
        """Record one result row (idempotent) and link its campaign.

        ``INSERT OR IGNORE`` on the unique key means concurrent writers
        of the same point both succeed: one inserts, the other adopts
        the existing row.  Returns the point id either way.
        """
        digest = scenario_hash(scenario)
        version = fingerprint or code_version()

        def body(connection: sqlite3.Connection) -> int:
            connection.execute(
                "INSERT OR IGNORE INTO points (scenario_hash, mode,"
                " code_version, graph_kind, scenario, axes, payload,"
                " elapsed_seconds, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    digest,
                    mode,
                    version,
                    scenario.graph.kind,
                    json.dumps(scenario.to_dict(), sort_keys=True),
                    json.dumps(dict(coordinates or {}), sort_keys=True),
                    json.dumps(dict(payload), sort_keys=True),
                    elapsed_seconds,
                    _now(),
                ),
            )
            point_id = int(
                connection.execute(
                    "SELECT id FROM points WHERE scenario_hash = ? AND"
                    " mode = ? AND code_version = ?",
                    (digest, mode, version),
                ).fetchone()["id"]
            )
            if campaign_id is not None:
                connection.execute(
                    "INSERT OR IGNORE INTO campaign_points (campaign_id,"
                    " point_id, reused) VALUES (?, ?, ?)",
                    (int(campaign_id), point_id, int(bool(reused))),
                )
            return point_id

        return self._transaction(body)

    def point_count(self) -> int:
        """Total distinct stored points."""
        return int(self._read("SELECT count(*) AS n FROM points")[0]["n"])

    # -- artifacts -----------------------------------------------------
    def record_artifact(
        self,
        campaign_id: int,
        *,
        name: str,
        title: Optional[str] = None,
        preset: Optional[str] = None,
        path: Optional[str] = None,
        size_bytes: Optional[int] = None,
        elapsed_seconds: Optional[float] = None,
    ) -> int:
        """Record one regenerated paper artifact under a campaign."""
        cursor = self._write(
            "INSERT INTO artifacts (campaign_id, name, title, preset, path,"
            " bytes, elapsed_seconds, created_at)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                int(campaign_id), str(name), title, preset, path,
                size_bytes, elapsed_seconds, _now(),
            ),
        )
        return int(cursor.lastrowid)

    def artifacts(self, campaign_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Artifact rows (optionally one campaign's), newest first."""
        if campaign_id is None:
            rows = self._read("SELECT * FROM artifacts ORDER BY id DESC")
        else:
            rows = self._read(
                "SELECT * FROM artifacts WHERE campaign_id = ?"
                " ORDER BY id DESC",
                (int(campaign_id),),
            )
        return [dict(row) for row in rows]

    # -- bench samples -------------------------------------------------
    def record_bench_samples(
        self,
        means: Mapping[str, float],
        *,
        source: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> int:
        """Append one run's benchmark means; returns rows written."""
        version = fingerprint or code_version()
        stamp = _now()

        def body(connection: sqlite3.Connection) -> None:
            for name, mean in means.items():
                connection.execute(
                    "INSERT INTO bench_samples (name, mean_seconds,"
                    " code_version, source, created_at)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (str(name), float(mean), version, source, stamp),
                )

        self._transaction(body)
        return len(means)

    def bench_baseline(self) -> Dict[str, float]:
        """Latest recorded mean per benchmark name (the live baseline)."""
        rows = self._read(
            """
            SELECT name, mean_seconds FROM bench_samples
            WHERE id IN (SELECT max(id) FROM bench_samples GROUP BY name)
            """
        )
        return {row["name"]: float(row["mean_seconds"]) for row in rows}

    def bench_trajectory(
        self, name: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The full sample history (optionally one benchmark's)."""
        if name is None:
            rows = self._read(
                "SELECT * FROM bench_samples ORDER BY name, id"
            )
        else:
            rows = self._read(
                "SELECT * FROM bench_samples WHERE name = ? ORDER BY id",
                (str(name),),
            )
        return [dict(row) for row in rows]

    # -- garbage collection --------------------------------------------
    def gc(
        self,
        *,
        keep_fingerprint: Optional[str] = None,
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Reclaim rows a code change stranded.

        Deletes points (and their campaign links) whose fingerprint is
        not ``keep_fingerprint`` (default: the running code's), then
        campaigns left with neither points nor artifacts, then bench
        samples that are no longer any benchmark's latest *or* from the
        kept fingerprint.  ``dry_run=True`` counts without deleting.
        Returns the per-table delete counts; vacuums after real work.
        """
        keep = keep_fingerprint or code_version()
        counts = {
            "points": int(self._read(
                "SELECT count(*) AS n FROM points WHERE code_version != ?",
                (keep,),
            )[0]["n"]),
            "campaign_links": int(self._read(
                "SELECT count(*) AS n FROM campaign_points WHERE point_id IN"
                " (SELECT id FROM points WHERE code_version != ?)",
                (keep,),
            )[0]["n"]),
            "campaigns": 0,
            "bench_samples": int(self._read(
                "SELECT count(*) AS n FROM bench_samples WHERE"
                " code_version != ? AND id NOT IN"
                " (SELECT max(id) FROM bench_samples GROUP BY name)",
                (keep,),
            )[0]["n"]),
        }
        empty_campaigns = (
            "SELECT c.id FROM campaigns c WHERE NOT EXISTS"
            " (SELECT 1 FROM campaign_points cp WHERE cp.campaign_id = c.id"
            "    AND cp.point_id IN (SELECT id FROM points"
            "                        WHERE code_version = ?))"
            " AND NOT EXISTS"
            " (SELECT 1 FROM artifacts a WHERE a.campaign_id = c.id)"
        )
        counts["campaigns"] = int(self._read(
            f"SELECT count(*) AS n FROM ({empty_campaigns})", (keep,)
        )[0]["n"])
        if dry_run:
            return counts

        def body(connection: sqlite3.Connection) -> None:
            connection.execute(
                "DELETE FROM campaign_points WHERE point_id IN"
                " (SELECT id FROM points WHERE code_version != ?)",
                (keep,),
            )
            connection.execute(
                "DELETE FROM points WHERE code_version != ?", (keep,)
            )
            connection.execute(
                f"DELETE FROM campaigns WHERE id IN ({empty_campaigns})",
                (keep,),
            )
            connection.execute(
                "DELETE FROM bench_samples WHERE code_version != ? AND"
                " id NOT IN (SELECT max(id) FROM bench_samples"
                " GROUP BY name)",
                (keep,),
            )

        self._transaction(body)
        with self._lock:
            self._connection.execute("VACUUM")
        return counts


def open_store(path: Union[str, Path, ResultsStore]) -> ResultsStore:
    """Coerce a path (or an already-open store) into a :class:`ResultsStore`."""
    if isinstance(path, ResultsStore):
        return path
    return ResultsStore(path)
