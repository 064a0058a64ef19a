"""``python -m repro serve`` — the accountant as a long-running service.

An asyncio HTTP/1.1 service (stdlib only) on top of the public
:mod:`repro.api` facade.  Closed-form accounting queries answer
*synchronously* on the event loop — the GRAPH_STATS paths run in
microseconds, and materializing paths hit the process-wide hot
:class:`~repro.scenario.cache.GraphCache` shared across every request —
while simulation and audit jobs run as points on the sweep engine's
supervised process pool (:class:`~repro.scenario.sweep.PointPool`;
the point index is the job number) with ``GET /jobs/<id>`` polling.

Endpoints (JSON in, JSON out):

``GET /healthz``
    Liveness: version + uptime.
``GET /stats``
    Cache-tier telemetry: graph-cache counters (builds vs hits) and
    kernel-sampler memo counters (this process plus the deltas jobs
    bring back from the workers), per-route request latencies, and job
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
    ``rounds >= 0``, each checked before enqueueing and folded into the
    scenario as ``audit.params.trials`` and ``rounds``; the auditor
    picks its own Monte Carlo engine, so like any other unknown member
    a ``method`` is ignored) — enqueue a job; returns ``202`` with a job
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
* **Job persistence** — with ``--store``, a finished job is kept as a
  campaign named after it plus the point it computed, so
  ``GET /jobs/<id>`` answers for jobs an earlier process ran, and a job
  whose ``(scenario hash, mode, code version)`` point is stored answers
  without running.  Persistence is best-effort: a store write failure
  is logged, counted as ``store_errors`` in ``GET /stats``, and never
  fails the job.
* **Job timeouts** — ``--job-timeout S`` is the pool's point timeout:
  a job that runs longer has its worker killed and answers the
  canonical 504 :class:`~repro.exceptions.ExecutionTimeoutError`
  payload; jobs queued behind it run on a fresh worker.

Errors map through the typed taxonomy in :mod:`repro.exceptions` —
invalid scenarios are 400s, schedule refusals 422s, unknown jobs 404s,
a full queue 429 — and carry exactly the message the CLI would print.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import multiprocessing
import signal
import threading
import time
from collections import OrderedDict
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
from repro.scenario.auditing import fold_audit_options
from repro.scenario.cache import CacheCounters
from repro.scenario.sweep import PointPool, PointResult
from repro.store import outcome_from_payload, outcome_payload

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

#: Start method of the job pool.  Not fork: this process runs threads,
#: and forking a threaded process is unsafe.  Spawned workers inherit
#: the environment (so fault plans reach them), and a spawn pool starts
#: workers on demand and reuses an idle one, so sequential jobs on one
#: graph share one worker's memoized bundle and kernel sampler.  The
#: price is a cold import (about a second) per new worker.
_START_METHOD = "spawn"

#: How often the event loop polls the job pool.
_POLL_SECONDS = 0.05


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
    """One enqueued run/audit execution (pool point = job number)."""

    id: str
    kind: str
    scenario: Any
    status: str = "queued"
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None

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
    """Request dispatch, the job table, and the job worker pool.

    One instance per process: every request shares the process-wide
    graph cache and memoized kernel samplers through :mod:`repro.api`,
    which is what turns the PR 5 caches into a cache *tier* — repeated
    bound queries for the same graph spec cost a cache hit plus theorem
    arithmetic.  Jobs run on one long-lived pool of ``workers``
    processes; the job table, the pool and the store are touched only
    from the event loop, so none of them needs a lock.
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
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        #: Jobs on the pool, by job number (their point index).
        self._running: Dict[int, _Job] = {}
        self._retain_jobs = int(retain_jobs)
        self._max_queue = None if max_queue is None else int(max_queue)
        self._metrics: Dict[str, _RouteMetrics] = {}
        #: Cache-counter deltas finished jobs brought back from workers.
        self._worker_graph = CacheCounters()
        self._worker_sampler = {"builds": 0, "hits": 0}
        if spill_dir is not None:
            spill_dir = str(api.attach_spill(spill_dir))
        if profile_budget is not None:
            # Schedule-accounting memory cap for every job; with a spill
            # tier attached, profile blocks land under it and survive
            # restarts alongside the graphs.
            api.set_profile_policy(
                api.ProfilePolicy(memory_budget=int(profile_budget))
            )
        self._pool = PointPool(
            workers,
            context=multiprocessing.get_context(_START_METHOD),
            spill_path=spill_dir,
            point_timeout=job_timeout,
        )
        self._store = None
        last_job_number = 0
        if store is not None:
            self._store = api.open_store(store)
            last_job_number = max(
                (
                    int(entry["name"][len("job-"):])
                    for entry in self._store.campaigns()
                    if "job" in (entry["meta"] or {})
                ),
                default=0,
            )
        self._job_ids = itertools.count(last_job_number + 1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._poller: Optional[asyncio.TimerHandle] = None
        #: Open client connections: handler task -> its stream writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        """Bind and start serving; returns the asyncio server."""
        self._server = await asyncio.start_server(self._handle, host, port)
        self._poll_jobs()
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
        if self._poller is not None:
            self._poller.cancel()
        self._server.close()
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=5)
        await self._server.wait_closed()

    def close(self) -> None:
        """Release the worker pool (killing running jobs) and the store."""
        self._pool.close()
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
    def _int_option(
        body: Mapping[str, Any], name: str, least: Optional[int] = None
    ) -> Optional[int]:
        value = body.get(name)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidScenarioError(
                f"{name!r} must be an integer, got {value!r}"
            )
        if least is not None and value < least:
            raise InvalidScenarioError(
                f"{name!r} must be >= {least}, got {value}"
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
    def _queue_depth(self) -> int:
        return sum(
            1 for job in self._running.values() if job.status == "queued"
        )

    def _enqueue(self, kind: str, body: Mapping[str, Any]) -> Dict[str, Any]:
        scenario = self._scenario_of(body)
        if kind == "audit":
            scenario = fold_audit_options(
                scenario,
                trials=self._int_option(body, "trials", least=1),
                rounds=self._int_option(body, "rounds", least=0),
            )
        depth = self._queue_depth()
        if self._max_queue is not None and depth >= self._max_queue:
            raise ServiceBusyError(
                f"job queue is full ({depth} queued, cap "
                f"{self._max_queue}); retry shortly",
                retry_after=1,
            )
        number = next(self._job_ids)
        job = _Job(id=f"job-{number}", kind=kind, scenario=scenario)
        self._jobs[job.id] = job
        self._evict_finished()
        stored = None
        if self._store is not None:
            try:
                stored = self._store.point_payload(scenario, kind)
            except Exception as error:  # noqa: BLE001 — then run it
                self._store_failed(job.id, error)
        if stored is not None:
            outcome = outcome_from_payload(kind, stored)
            self._finish(job, PointResult(number, outcome=outcome), True)
        else:
            self._running[number] = job
            self._pool.submit(number, scenario.to_json(), kind)
        return job.payload()

    def _poll_jobs(self) -> None:
        """Every ``_POLL_SECONDS`` on the event loop: harvest finished
        jobs from the pool and mark the started ones ``running``."""
        self._poller = asyncio.get_running_loop().call_later(
            _POLL_SECONDS, self._poll_jobs
        )
        try:
            results = self._pool.poll()
        except ReproError as error:
            # The pool itself is broken: every job on it fails.
            results = [
                PointResult(number, error=error) for number in self._running
            ]
        for result in results:
            job = self._running.pop(result.index)
            job.started = job.started or self._pool.started_at(result.index)
            self._finish(job, result)
        for number, job in self._running.items():
            if job.status == "queued":
                started = self._pool.started_at(number)
                if started is not None:
                    job.status, job.started = "running", started

    def _finish(
        self, job: _Job, result: PointResult, reused: bool = False
    ) -> None:
        """Record a job's outcome or error, and checkpoint it to the
        store (if attached) as a campaign named after the job plus the
        point it computed.  Checkpointing is best-effort — a store
        hiccup must not turn a finished job into an error — but not
        silent: each failure is logged and counted in ``GET /stats``."""
        job.finished = time.time()
        if result.error is None:
            job.status = "done"
            render = api.run_payload if job.kind == "run" else api.audit_payload
            job.result = render(result.outcome)
            self._worker_graph.merge(result.graph_delta)
            for name, count in result.sampler_delta.items():
                self._worker_sampler[name] += count
        else:
            error = result.error
            if result.kind == "timeout":
                error = ExecutionTimeoutError(
                    f"job {job.id} exceeded --job-timeout="
                    f"{self._job_timeout}s; its worker was killed"
                )
            job.status = "error"
            job.error = error_payload(error)
        if self._store is None:
            return
        try:
            campaign = self._store.begin_campaign(
                job.id,
                meta={"job": job.payload()},
                status="complete" if job.error is None else "interrupted",
            )
            if job.error is None:
                self._store.record_point(
                    job.scenario,
                    job.kind,
                    outcome_payload(result.outcome),
                    campaign_id=campaign,
                    elapsed_seconds=getattr(
                        result.outcome, "elapsed_seconds", None
                    ),
                    reused=reused,
                )
        except Exception as error:  # noqa: BLE001 — persistence is best-effort
            self._store_failed(job.id, error)

    def _store_failed(self, job_id: str, error: BaseException) -> None:
        self._store_errors += 1
        _LOG.warning("results store write failed for job %s: %s", job_id, error)

    def _evict_finished(self) -> None:
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

    def _job_status(self, job_id: str) -> Dict[str, Any]:
        job = self._jobs.get(job_id)
        if job is not None:
            return job.payload()
        for entry in [] if self._store is None else self._store.campaigns(
            job_id
        ):
            # Checkpointed by an earlier process (or evicted from this
            # one's table).
            if "job" in (entry["meta"] or {}):
                return entry["meta"]["job"]
        raise JobNotFoundError(f"no job {job_id!r} (expired or never existed)")

    # -- introspection -------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        import repro

        return {
            "status": "ok",
            "version": repro.__version__,
            "uptime_seconds": round(time.time() - self.started, 3),
        }

    def _stats(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        graph_cache = api.cache_stats()
        for name in ("builds", "memory_hits", "disk_hits", "requests"):
            graph_cache[name] += getattr(self._worker_graph, name)
        kernel_sampler = api.sampler_stats()
        for name, count in self._worker_sampler.items():
            kernel_sampler[name] += count
        return {
            "uptime_seconds": round(time.time() - self.started, 3),
            "graph_cache": graph_cache,
            "kernel_sampler": kernel_sampler,
            "profile_store": api.profile_stats(),
            "exchange_backend": api.backend_info(),
            "jobs": {"retained": len(self._jobs), **by_status},
            "queue": {"depth": self._queue_depth(), "max": self._max_queue},
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
