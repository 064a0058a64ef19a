"""``python -m repro serve`` — the accountant as a long-running service.

An asyncio HTTP/1.1 service (stdlib only) on top of the public
:mod:`repro.api` facade.  Closed-form accounting queries answer
*synchronously* on the event loop — the GRAPH_STATS paths run in
microseconds, and materializing paths hit the process-wide hot
:class:`~repro.scenario.cache.GraphCache` shared across every request —
while simulation and audit jobs execute on a bounded thread pool with
``GET /jobs/<id>`` polling.

Endpoints (JSON in, JSON out):

``GET /healthz``
    Liveness: version + uptime.
``GET /stats``
    Cache-tier telemetry: graph-cache counters (builds vs hits),
    kernel-sampler memo counters, per-route request latencies, and job
    counts.
``POST /bound``
    Body ``{"scenario": {...}, "rounds": 8?}`` — the Theorem 5.3-5.6
    guarantee of the scenario, synchronously.
``POST /stationary_bound``
    Body ``{"scenario": {...}, "materialize": false?}`` — the
    closed-form at-stationarity guarantee (no graph build for
    GRAPH_STATS kinds), synchronously.
``POST /run`` / ``POST /audit``
    Body ``{"scenario": {...}}`` (audit also accepts ``trials >= 1`` and
    ``rounds >= 0``, each checked before enqueueing; the auditor picks
    its own Monte Carlo engine, so like any other unknown member a
    ``method`` is ignored) — enqueue a job; returns ``202`` with a job
    id immediately.
``GET /jobs/<id>``
    Job status; ``result`` appears when done, ``error`` (the canonical
    :func:`repro.exceptions.error_payload`) when failed.
``GET /results``
    Cross-campaign aggregates straight from the attached results store
    (``--store``): ``?x=rounds&y=epsilon&group_by=graph_kind`` plus
    optional ``mode``/``campaign`` filters.

Operational behaviors:

* **Back-pressure** — ``--max-queue N`` caps queued (not yet running)
  jobs; past the cap, ``POST /run``/``POST /audit`` answer ``429`` with
  a ``Retry-After`` header instead of accepting unbounded work.  The
  live queue depth is in ``GET /stats``.
* **Job persistence** — with ``--store``, finished job outcomes are
  written to the results store and replayed on restart, so
  ``GET /jobs/<id>`` keeps answering for jobs an earlier process ran.
  Persistence is best-effort: a store write failure is logged, counted
  as ``store_errors`` in ``GET /stats``, and never fails the job.
* **Job timeouts** — ``--job-timeout S`` arms a watchdog per enqueued
  job: one that exceeds its budget is marked failed with the canonical
  504 :class:`~repro.exceptions.ExecutionTimeoutError` payload, and a
  late result from its (unkillable) worker thread is discarded.

Errors map through the typed taxonomy in :mod:`repro.exceptions` —
invalid scenarios are 400s, schedule refusals 422s, unknown jobs 404s,
a full queue 429 — and carry exactly the message the CLI would print.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import api
from repro.exceptions import (
    ExecutionTimeoutError,
    InvalidScenarioError,
    JobNotFoundError,
    ReproError,
    ServiceBusyError,
    ValidationError,
    error_payload,
)

_LOG = logging.getLogger("repro.serve")

__all__ = ["ReproService", "ServerHandle", "main", "serve"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    504: "Gateway Timeout",
}

#: Largest accepted request body; scenarios are small JSON documents,
#: so anything bigger is a client error, not a workload.
_MAX_BODY_BYTES = 4_000_000


class _BadRequest(Exception):
    """Malformed HTTP framing (not JSON-level errors)."""


@dataclass
class _RouteMetrics:
    """Latency/count telemetry for one route."""

    count: int = 0
    errors: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def observe(self, elapsed: float, status: int) -> None:
        self.count += 1
        if status >= 400:
            self.errors += 1
        self.total_seconds += elapsed
        if elapsed > self.max_seconds:
            self.max_seconds = elapsed

    def payload(self) -> Dict[str, Any]:
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "errors": self.errors,
            "mean_ms": round(mean * 1e3, 3),
            "max_ms": round(self.max_seconds * 1e3, 3),
        }


@dataclass
class _Job:
    """One enqueued run/audit execution."""

    id: str
    kind: str
    scenario: Any
    options: Dict[str, Any] = field(default_factory=dict)
    status: str = "queued"
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    #: Set by the --job-timeout watchdog; a worker thread cannot be
    #: killed, so an expired job's eventual result is discarded instead.
    expired: bool = False

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
        }
        if self.started is not None and self.finished is not None:
            body["elapsed_seconds"] = round(self.finished - self.started, 6)
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        return body


class ReproService:
    """Request dispatch, the job store, and the bounded worker pool.

    One instance per process: every request shares the process-wide
    graph cache and memoized kernel samplers through :mod:`repro.api`,
    which is what turns the PR 5 caches into a cache *tier* — repeated
    bound queries for the same graph spec cost a cache hit plus theorem
    arithmetic.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        spill_dir: Optional[str] = None,
        retain_jobs: int = 1024,
        max_queue: Optional[int] = None,
        store: Optional[str] = None,
        job_timeout: Optional[float] = None,
        profile_budget: Optional[int] = None,
    ):
        if job_timeout is not None and not job_timeout > 0:
            raise ValidationError(
                f"job_timeout must be positive seconds, got {job_timeout!r}"
            )
        if workers < 1:
            raise ValidationError(f"workers must be at least 1, got {workers!r}")
        if max_queue is not None and max_queue < 0:
            raise ValidationError(
                f"max_queue must be non-negative, got {max_queue!r}"
            )
        self.started = time.time()
        self._job_timeout = job_timeout
        self._store_errors = 0
        self._executor = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="repro-job"
        )
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._retain_jobs = int(retain_jobs)
        self._max_queue = None if max_queue is None else int(max_queue)
        self._metrics: Dict[str, _RouteMetrics] = {}
        self._spill_attached = spill_dir is not None
        if spill_dir is not None:
            api.attach_spill(spill_dir)
        if profile_budget is not None:
            # Schedule-accounting memory cap for every job this process
            # runs; with a spill tier attached, profile blocks land
            # under it and survive restarts alongside the graphs.
            api.set_profile_policy(
                api.ProfilePolicy(memory_budget=int(profile_budget))
            )
        self._store = None
        next_job_number = 1
        if store is not None:
            # Imported lazily: the store is optional serving equipment.
            from repro.store import open_store

            self._store = open_store(store)
            next_job_number = 1 + self._restore_jobs()
        self._job_ids = itertools.count(next_job_number)
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open client connections: handler task -> its stream writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    def _restore_jobs(self) -> int:
        """Replay persisted job outcomes; returns the highest job number.

        Only *finished* jobs are persisted (see :meth:`_run_job`), so a
        restart replays completed history — it never resurrects work
        that was still queued when the previous process died.
        """
        highest = 0
        for row in self._store.load_jobs():
            job = _Job(
                id=row["id"],
                kind=row["kind"],
                scenario=row["scenario"],
                status=row["status"],
                submitted=row["submitted"] or time.time(),
                finished=row["finished"],
                result=row["result"],
                error=row["error"],
            )
            self._jobs[job.id] = job
            prefix, _, number = job.id.partition("-")
            if prefix == "job" and number.isdigit():
                highest = max(highest, int(number))
        return highest

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        """Bind and start serving; returns the asyncio server."""
        self._server = await asyncio.start_server(self._handle, host, port)
        return self._server

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and close every open client connection.

        Idle keep-alive handlers see EOF and return normally instead of
        being cancelled at event-loop teardown, which would log one
        ``CancelledError`` traceback per open connection.
        """
        if self._server is None:
            return
        self._server.close()
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=5)
        await self._server.wait_closed()

    def close(self) -> None:
        """Stop accepting jobs and release the worker pool."""
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self._store is not None:
            self._store.close()

    # -- HTTP plumbing -------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                started = time.perf_counter()
                route, status, payload, extra_headers = self._dispatch(
                    method, target, body
                )
                self._metrics.setdefault(route, _RouteMetrics()).observe(
                    time.perf_counter() - started, status
                )
                self._write_response(
                    writer, status, payload, keep_alive, extra_headers
                )
                await writer.drain()
                if not keep_alive:
                    break
        except _BadRequest as error:
            try:
                self._write_response(
                    writer,
                    400,
                    {"error": "BadRequest", "status": 400, "message": str(error)},
                    keep_alive=False,
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            TimeoutError,
        ):
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                # CancelledError lands here when the loop shuts down
                # mid-close; the connection is gone either way.
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line: {line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, separator, value = header.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest(f"malformed header line: {header!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("content-length is not an integer") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _BadRequest(
                f"content-length {length} outside [0, {_MAX_BODY_BYTES}]"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        header = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extras}"
            "\r\n"
        )
        writer.write(header.encode("latin-1") + body)

    # -- dispatch ------------------------------------------------------
    def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[str, int, Any, Dict[str, str]]:
        """Route one request.

        Returns ``(route label, status, payload, extra headers)`` — the
        headers carry response metadata that is not body content, like
        ``Retry-After`` on a 429.
        """
        path, _, query = target.partition("?")
        if path.startswith("/jobs/"):
            route = "GET /jobs/<id>"
        else:
            route = f"{method} {path}"
        try:
            if path == "/healthz" and method == "GET":
                return route, 200, self._healthz(), {}
            if path == "/stats" and method == "GET":
                return route, 200, self._stats(), {}
            if path == "/results" and method == "GET":
                return route, 200, self._results(query), {}
            if path == "/bound" and method == "POST":
                return route, 200, self._bound(self._json_body(body)), {}
            if path == "/stationary_bound" and method == "POST":
                return (
                    route, 200,
                    self._stationary_bound(self._json_body(body)), {},
                )
            if path == "/run" and method == "POST":
                return (
                    route, 202, self._enqueue("run", self._json_body(body)), {}
                )
            if path == "/audit" and method == "POST":
                return (
                    route, 202,
                    self._enqueue("audit", self._json_body(body)), {},
                )
            if path.startswith("/jobs/") and method == "GET":
                return route, 200, self._job_status(path[len("/jobs/"):]), {}
            if path in (
                "/healthz", "/stats", "/results", "/bound",
                "/stationary_bound", "/run", "/audit",
            ) or path.startswith("/jobs/"):
                return route, 405, {
                    "error": "MethodNotAllowed",
                    "status": 405,
                    "message": f"{method} not allowed on {path}",
                }, {}
            return route, 404, {
                "error": "NotFound",
                "status": 404,
                "message": f"no route {path!r}",
            }, {}
        except ServiceBusyError as error:
            payload = error_payload(error)
            return route, payload["status"], payload, {
                "Retry-After": str(error.retry_after)
            }
        except ReproError as error:
            payload = error_payload(error)
            return route, payload["status"], payload, {}
        except Exception as error:  # noqa: BLE001 — last-resort 500
            payload = error_payload(error)
            payload["status"] = 500
            return route, 500, payload, {}

    # -- request bodies ------------------------------------------------
    @staticmethod
    def _json_body(body: bytes) -> Mapping[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise InvalidScenarioError(
                f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(payload, Mapping):
            raise InvalidScenarioError(
                "request body must be a JSON object with a 'scenario' member"
            )
        return payload

    @staticmethod
    def _scenario_of(body: Mapping[str, Any]):
        if "scenario" not in body:
            raise InvalidScenarioError(
                "request body must be a JSON object with a 'scenario' member"
            )
        return api.parse_scenario(body["scenario"])

    @staticmethod
    def _int_option(body: Mapping[str, Any], name: str) -> Optional[int]:
        value = body.get(name)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidScenarioError(
                f"{name!r} must be an integer, got {value!r}"
            )
        return int(value)

    # -- synchronous accounting ----------------------------------------
    def _bound(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        scenario = self._scenario_of(body)
        rounds = self._int_option(body, "rounds")
        return api.bound_payload(api.bound(scenario, rounds=rounds))

    def _stationary_bound(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        scenario = self._scenario_of(body)
        materialize = body.get("materialize", False)
        if not isinstance(materialize, bool):
            raise InvalidScenarioError(
                f"'materialize' must be a JSON boolean, got {materialize!r}"
            )
        return api.bound_payload(
            api.stationary_bound(scenario, materialize=materialize)
        )

    # -- jobs ----------------------------------------------------------
    def _queue_depth_locked(self) -> int:
        return sum(
            1 for job in self._jobs.values() if job.status == "queued"
        )

    def _enqueue(self, kind: str, body: Mapping[str, Any]) -> Dict[str, Any]:
        scenario = self._scenario_of(body)
        options: Dict[str, Any] = {}
        if kind == "audit":
            for name, least in (("trials", 1), ("rounds", 0)):
                value = self._int_option(body, name)
                if value is None:
                    continue
                if value < least:
                    raise InvalidScenarioError(
                        f"{name!r} must be >= {least}, got {value}"
                    )
                options[name] = value
        job = _Job(
            id=f"job-{next(self._job_ids)}",
            kind=kind,
            scenario=scenario,
            options=options,
        )
        with self._jobs_lock:
            # Back-pressure: admission control happens under the same
            # lock that records the job, so the cap cannot be raced past.
            depth = self._queue_depth_locked()
            if self._max_queue is not None and depth >= self._max_queue:
                raise ServiceBusyError(
                    f"job queue is full ({depth} queued, cap "
                    f"{self._max_queue}); retry shortly",
                    retry_after=1,
                )
            self._jobs[job.id] = job
            self._evict_finished_locked()
        loop = asyncio.get_running_loop()
        loop.run_in_executor(self._executor, self._run_job, job)
        if self._job_timeout is not None:
            # The watchdog fires on the event loop; a job that finished
            # in time makes it a no-op.
            loop.call_later(self._job_timeout, self._expire_job, job.id)
        return job.payload()

    def _evict_finished_locked(self) -> None:
        """Drop the oldest finished jobs past the retention cap."""
        excess = len(self._jobs) - self._retain_jobs
        if excess <= 0:
            return
        for job_id in [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in ("done", "error")
        ][:excess]:
            del self._jobs[job_id]

    def _run_job(self, job: _Job) -> None:
        """Worker-thread body: execute and record one job.

        Status transitions happen under the jobs lock so they compose
        with the ``--job-timeout`` watchdog: a job the watchdog expired
        while queued never starts, and one it expired mid-run keeps the
        watchdog's 504 record — the late result is discarded (a thread
        cannot be killed, so discarding is the strongest guarantee a
        thread-pool job can offer).
        """
        with self._jobs_lock:
            if job.status != "queued":
                return  # expired (or otherwise finalized) while queued
            job.started = time.time()
            job.status = "running"
        result: Optional[Dict[str, Any]] = None
        error: Optional[Dict[str, Any]] = None
        try:
            if job.kind == "run":
                outcome = api.run(job.scenario)
                result = api.run_payload(api.digest_run(outcome))
            else:
                outcome = api.audit(job.scenario, **job.options)
                result = api.audit_payload(outcome)
            if self._spill_attached:
                # Persist the materialization so a restarted service
                # warms from disk instead of re-running the generator.
                api.spill_graph(job.scenario)
        except Exception as exc:  # noqa: BLE001 — recorded, not raised
            error = error_payload(exc)
        with self._jobs_lock:
            if job.expired:
                return  # the watchdog already recorded (and persisted) 504
            if error is not None:
                job.error = error
                job.status = "error"
            else:
                job.result = result
                job.status = "done"
            job.finished = time.time()
        self._persist_job(job)

    def _expire_job(self, job_id: str) -> None:
        """``--job-timeout`` watchdog: fail a job that outlived its budget."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is None or job.status in ("done", "error"):
                return
            job.expired = True
            job.error = error_payload(
                ExecutionTimeoutError(
                    f"job {job_id} exceeded --job-timeout="
                    f"{self._job_timeout}s; its eventual result is discarded"
                )
            )
            job.status = "error"
            job.finished = time.time()
        self._persist_job(job)

    def _persist_job(self, job: _Job) -> None:
        """Write a finished job's outcome to the store (if attached).

        Persistence is best-effort — a store hiccup must not turn a
        finished job into an error; the in-memory record stays
        authoritative for this process — but not silent: each failure
        is logged (once per job, since a job persists once) and counted
        as ``store_errors`` in ``GET /stats``.
        """
        if self._store is None:
            return
        try:
            scenario_json = (
                job.scenario.to_json()
                if hasattr(job.scenario, "to_json")
                else None
            )
            self._store.save_job(
                job_id=job.id,
                kind=job.kind,
                status=job.status,
                scenario_json=scenario_json,
                result=job.result,
                error=job.error,
                submitted=job.submitted,
                finished=job.finished,
            )
        except Exception as error:  # noqa: BLE001 — persistence is best-effort
            with self._jobs_lock:
                self._store_errors += 1
            _LOG.warning(
                "results store write failed for job %s: %s", job.id, error
            )

    def _job_status(self, job_id: str) -> Dict[str, Any]:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r} (expired or never existed)")
        return job.payload()

    # -- introspection -------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        import repro

        return {
            "status": "ok",
            "version": repro.__version__,
            "uptime_seconds": round(time.time() - self.started, 3),
        }

    def _stats(self) -> Dict[str, Any]:
        with self._jobs_lock:
            jobs = list(self._jobs.values())
            depth = self._queue_depth_locked()
        by_status: Dict[str, int] = {}
        for job in jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        from repro.netsim.kernels import backend_info

        return {
            "uptime_seconds": round(time.time() - self.started, 3),
            "graph_cache": api.cache_stats(),
            "kernel_sampler": api.sampler_stats(),
            "profile_store": api.profile_stats(),
            "exchange_backend": backend_info(),
            "jobs": {"retained": len(jobs), **by_status},
            "queue": {"depth": depth, "max": self._max_queue},
            "store_errors": self._store_errors,
            "requests": {
                route: metrics.payload()
                for route, metrics in sorted(self._metrics.items())
            },
        }

    def _results(self, query: str) -> Dict[str, Any]:
        """``GET /results`` — aggregates from the attached store."""
        if self._store is None:
            raise ValidationError(
                "no results store attached; start the service with "
                "--store PATH to enable GET /results"
            )
        from urllib.parse import parse_qsl

        from repro.store import aggregate

        parameters = dict(parse_qsl(query))
        known = {"x", "y", "group_by", "mode", "campaign"}
        unknown = set(parameters) - known
        if unknown:
            raise ValidationError(
                f"unknown /results parameters {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        rows = aggregate(
            self._store,
            x=parameters.get("x", "rounds"),
            y=parameters.get("y", "epsilon"),
            group_by=parameters.get("group_by", "graph_kind"),
            mode=parameters.get("mode"),
            campaign=parameters.get("campaign"),
        )
        return {
            "store": str(self._store.path),
            "points": self._store.point_count(),
            "rows": rows,
        }


# ----------------------------------------------------------------------
# Entrypoints
# ----------------------------------------------------------------------
async def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8777,
    workers: int = 2,
    spill_dir: Optional[str] = None,
    max_queue: Optional[int] = None,
    store: Optional[str] = None,
    job_timeout: Optional[float] = None,
    profile_budget: Optional[int] = None,
    echo=print,
) -> None:
    """Run the service until SIGINT/SIGTERM (the CLI entry point)."""
    service = ReproService(
        workers=workers,
        spill_dir=spill_dir,
        max_queue=max_queue,
        store=store,
        job_timeout=job_timeout,
        profile_budget=profile_budget,
    )
    await service.start(host, port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or unsupported platform
    echo(
        f"repro serve: http://{host}:{service.port} "
        f"({workers} job workers"
        + (f", spill tier {spill_dir}" if spill_dir else "")
        + (f", results store {store}" if store else "")
        + (f", queue cap {max_queue}" if max_queue is not None else "")
        + (
            f", job timeout {job_timeout}s"
            if job_timeout is not None
            else ""
        )
        + (
            f", profile budget {profile_budget} bytes"
            if profile_budget is not None
            else ""
        )
        + ") — GET /healthz /stats /results,"
        " POST /bound /stationary_bound /run /audit",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        await service.stop()
        service.close()
        echo("repro serve: stopped", flush=True)


class ServerHandle:
    """The service on a daemon thread — tests, examples, and benches.

    ``with ServerHandle.start(port=0) as handle:`` boots a fully real
    server on an ephemeral port, exposes ``handle.base_url``, and shuts
    it down cleanly on exit.
    """

    def __init__(self) -> None:
        self.host: str = ""
        self.port: int = 0
        self.service: Optional[ReproService] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @classmethod
    def start(
        cls, host: str = "127.0.0.1", port: int = 0, **service_kwargs
    ) -> "ServerHandle":
        handle = cls()
        handle._thread = threading.Thread(
            target=handle._thread_main,
            args=(host, port, service_kwargs),
            name="repro-serve",
            daemon=True,
        )
        handle._thread.start()
        if not handle._ready.wait(timeout=30):
            raise RuntimeError("server did not come up within 30s")
        if handle._error is not None:
            raise RuntimeError("server failed to start") from handle._error
        return handle

    def _thread_main(self, host: str, port: int, service_kwargs) -> None:
        try:
            asyncio.run(self._main(host, port, service_kwargs))
        except BaseException as error:  # noqa: BLE001 — surfaced via start()
            self._error = error
            self._ready.set()

    async def _main(self, host: str, port: int, service_kwargs) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = ReproService(**service_kwargs)
        await self.service.start(host, port)
        self.host = host
        self.port = self.service.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()
            self.service.close()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._loop is not None and self._thread and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(arguments: list) -> None:
    """``python -m repro serve [flags]``; ``-h`` lists the flags."""
    from repro.__main__ import main as cli

    cli(["serve", *arguments])
