"""The ``serve_mixed`` workload: the HTTP service under reads and writes.

The server is started only through the documented CLI,
``python -m repro serve --port 0 --workers 1``, and stopped with SIGINT.
One client process drives it over two keep-alive connections:

* connection A sends ``POST /bound`` open loop at ``MIXED_RATE`` over
  warm 4,096-node k-regular specs (degree 4/6/8/10, varying ``rounds``),
  each request timed from when it was due;
* connection B runs a closed-loop job stream alternating ``/audit`` (a
  25x40 torus, 2,000 trials) and ``/run`` (k=8, 4,096 users, a fresh
  seed each) and polls ``/jobs/<id>`` until each is done.

Between mixed phases, a read-only step on connection A measures the
``/bound`` rate one caller sustains sending back to back.  Set-up is
the median spawn-to-ready time of several spawns (ready: every bound
spec's graph and spectral summary built) plus the audit job's
kernel-sampler warm-up on the server that carries the traffic.

The workload is not listed in ``BENCHMARK.json``: on a small shared
host its millisecond figures move with the CPU the host lends from one
run to the next (see ``perfbench/README.md``).
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import signal
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import api

from perfbench import tracing
from perfbench.common import (
    Tally,
    beyond,
    close,
    median,
    op_seed,
    percentile,
    process_peak_rss_mib,
)
from perfbench.httpclient import Connection

#: Server spawns per run; ``setup_s`` is their median spawn-to-ready time.
SETUP_SPAWNS = 3
#: The server gets one BLAS thread so that, on a small host, the client
#: keeps a core to itself and its timings stay the server's.
SERVER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: Offered ``/bound`` rate while the job stream runs (requests per second).
MIXED_RATE = 100.0
#: Share of ``--seconds`` spent in the mixed phase; the rest measures
#: read-only capacity.  The two alternate ``PHASES`` times; latency
#: figures are medians over the mixed phases and capacity is the highest
#: step, so a transient slow spell on a shared host does not decide them.
MIXED_SHARE = 0.75
PHASES = 4
#: Job status poll interval.
POLL_S = 0.02
#: ``/run`` jobs of the mixed phase the traced run replays in-process.
TRACED_RUNS = 3
#: ARPACK start-vector noise between the server's solve and ours.
EPSILON_RTOL = 1e-9

HOST = "127.0.0.1"
BOUND_DEGREES = (4, 6, 8, 10)
BOUND_ROUNDS = (8, 12, 16, 24, 32, 48)
BOUND_NODES = 4096
RR = {"kind": "rr", "params": {"epsilon": 1.0}}
JOB_RUN = {
    "graph": {"kind": "k_regular", "params": {"degree": 8, "num_nodes": BOUND_NODES}},
    "mechanism": RR,
    "values": {"kind": "bernoulli", "params": {"rate": 0.3}},
    "protocol": "all",
}
JOB_AUDIT = {
    "graph": {"kind": "grid", "params": {"rows": 25, "cols": 40, "periodic": True}},
    "mechanism": RR,
}
AUDIT_TRIALS = 2000

_ADDRESS = re.compile(rb"http://([\d.]+):(\d+)")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def bound_requests(seed: int) -> List[Tuple[bytes, float]]:
    """Every ``/bound`` body of the run with its in-process epsilon.

    Each degree's graph seed is pinned per run, so after the warm-up
    every request hits the server's graph cache.
    """
    requests = []
    for degree in BOUND_DEGREES:
        spec = {
            "graph": {
                "kind": "k_regular",
                "params": {"degree": degree, "num_nodes": BOUND_NODES},
            },
            "mechanism": RR,
            "seed": op_seed(seed, f"bound-d{degree}", 0),
        }
        scenario = api.parse_scenario(spec)
        for rounds in BOUND_ROUNDS:
            expected = api.bound(scenario, rounds=rounds).epsilon
            body = json.dumps({"scenario": spec, "rounds": rounds}).encode()
            requests.append((body, expected))
    order = np.random.default_rng(op_seed(seed, "bound-order", 0)).permutation(
        len(requests)
    )
    return [requests[index] for index in order]


def job_body(seed: int, index: int) -> Tuple[str, Dict[str, Any]]:
    """Job ``index`` of the stream: audits and runs alternate."""
    scenario_seed = op_seed(seed, "job", index)
    if index % 2 == 0:
        return "/audit", {
            "scenario": {**JOB_AUDIT, "seed": scenario_seed},
            "trials": AUDIT_TRIALS,
        }
    return "/run", {"scenario": {**JOB_RUN, "seed": scenario_seed}}


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro serve`` subprocess."""

    def __init__(self, process: asyncio.subprocess.Process, port: int):
        self.process = process
        self.port = port

    @classmethod
    async def spawn(cls, env: Dict[str, str], root: str) -> "Server":
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve",
            "--host", HOST, "--port", "0", "--workers", "1",
            cwd=root, env={**env, **SERVER_ENV},
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
        )
        line = await asyncio.wait_for(process.stdout.readline(), timeout=60)
        match = _ADDRESS.search(line)
        if match is None:
            process.kill()
            await process.wait()
            raise RuntimeError(f"server did not announce its address: {line!r}")
        return cls(process, int(match.group(2)))

    def peak_rss_mib(self) -> float:
        return process_peak_rss_mib(self.process.pid)

    async def stop(self) -> Dict[str, Any]:
        """SIGINT, then wait; returns exit status and stderr tracebacks."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGINT)
        try:
            _, stderr = await asyncio.wait_for(
                self.process.communicate(), timeout=30
            )
        except asyncio.TimeoutError:
            self.process.kill()
            _, stderr = await self.process.communicate()
        text = stderr.decode("utf-8", "replace")
        return {
            "exit_status": self.process.returncode,
            "tracebacks": text.count("Traceback (most recent call last)"),
            "stderr_tail": text[-400:],
        }


async def spawn_ready(
    env: Dict[str, str], root: str, requests: List[Tuple[bytes, float]],
    tally: Tally,
) -> Tuple[Server, Connection, float]:
    """Spawn a server and warm every bound spec's graph and spectral
    summary.  Returns the server, an open connection and the seconds
    from spawn to ready."""
    started = time.perf_counter()
    server = await Server.spawn(env, root)
    try:
        connection = await Connection(HOST, server.port).open()
        warmed = set()
        for body, expected in requests:
            key = json.loads(body)["scenario"]["graph"]["params"]["degree"]
            if key in warmed:
                continue
            warmed.add(key)
            status, payload = await connection.request_raw("POST", "/bound", body)
            tally.count(
                status == 200
                and close(payload.get("epsilon"), expected, EPSILON_RTOL),
                f"warm-up /bound answered {status}: {payload}",
            )
    except BaseException:
        await server.stop()
        raise
    return server, connection, time.perf_counter() - started


async def warm_sampler(connection: Connection, seed: int, tally: Tally) -> float:
    """Run one audit job so the server memoizes the torus kernel sampler
    every later ``/audit`` reuses; returns its submit-to-done seconds."""
    started = time.perf_counter()
    path, body = job_body(seed, 0)
    status, payload = await connection.request("POST", path, body)
    if status == 202:
        status, payload = await wait_job(connection, payload)
    tally.count(
        status == 200 and payload.get("status") == "done",
        f"warm-up audit ended {status}: {payload}",
    )
    return time.perf_counter() - started


async def wait_job(
    connection: Connection, payload: Dict[str, Any], stats: Optional[list] = None
) -> Tuple[int, Dict[str, Any]]:
    """Poll ``/jobs/<id>`` until the job is done or failed.

    With ``stats``, every tenth poll also samples ``/stats`` queue depth.
    """
    job_id = payload["id"]
    status, polls = 200, 0
    deadline = time.perf_counter() + 120
    while payload.get("status") not in ("done", "error"):
        if time.perf_counter() > deadline:
            break
        await asyncio.sleep(POLL_S)
        status, payload = await connection.request("GET", f"/jobs/{job_id}")
        if status != 200:
            break
        polls += 1
        if stats is not None and polls % 10 == 0:
            _, snapshot = await connection.request("GET", "/stats")
            stats.append(snapshot["queue"]["depth"])
    return status, payload


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
async def open_loop(
    connection: Connection,
    requests: List[Tuple[bytes, float]],
    rate: float,
    seconds: float,
    tally: Tally,
) -> Dict[str, Any]:
    """``POST /bound`` at ``rate`` for ``seconds``, pipelined.

    Latency runs from each request's due time to its response, so a
    stall counts against every request that fell due during it.
    """
    loop = asyncio.get_running_loop()
    count = max(1, int(rate * seconds))
    start = loop.time() + 0.01
    due_times: deque = deque()
    latencies: List[float] = []
    late: List[float] = []

    async def writer() -> None:
        for index in range(count):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(loop.time() - due)
            body, expected = requests[index % len(requests)]
            due_times.append((due, expected))
            connection.send("POST", "/bound", body)
        await connection.drain()

    async def reader() -> None:
        for _ in range(count):
            status, payload = await connection.receive()
            due, expected = due_times.popleft()
            latencies.append((loop.time() - due) * 1e3)
            tally.count(
                status == 200
                and close(payload.get("epsilon"), expected, EPSILON_RTOL),
                f"/bound answered {status}: {payload}",
            )

    await asyncio.gather(writer(), reader())
    return {
        "latencies_ms": latencies,
        "late_ms": [value * 1e3 for value in late],
    }


class JobStream:
    """Closed-loop ``/audit``/``/run`` jobs on one connection.

    :meth:`run` submits jobs one after another until its ``stop`` event
    is set and the job in flight has finished; later calls continue the
    same job sequence.
    """

    def __init__(self, connection: Connection, seed: int, tally: Tally,
                 trace: bool):
        self.connection = connection
        self.seed = seed
        self.tally = tally
        self.latencies: Dict[str, List[float]] = {"/audit": [], "/run": []}
        #: ``/stats`` queue depths, sampled while polling (traced runs).
        self.queue_depths: Optional[List[int]] = [] if trace else None
        #: Served central epsilon of each ``/run`` job, by job index.
        self.run_epsilons: Dict[int, float] = {}
        self.failed = 0
        self.index = 0

    async def run(self, stop: asyncio.Event) -> None:
        loop = asyncio.get_running_loop()
        while not stop.is_set():
            index = self.index
            self.index += 1
            path, body = job_body(self.seed, index)
            submitted = loop.time()
            status, payload = await self.connection.request("POST", path, body)
            if status == 202:
                status, payload = await wait_job(
                    self.connection, payload, self.queue_depths
                )
                self.latencies[path].append(loop.time() - submitted)
            ok = status == 200 and payload.get("status") == "done"
            result = payload.get("result") or {}
            if ok and path == "/run":
                self.run_epsilons[index] = result.get("central_epsilon")
                ok = (
                    result.get("num_users") == BOUND_NODES
                    and math.isfinite(result.get("central_epsilon", math.nan))
                    and math.isfinite(result.get("empirical_epsilon", math.nan))
                )
            elif ok:
                ok = math.isfinite(result.get("epsilon_lower_bound", math.nan))
            self.tally.count(ok, f"job {path} answered {status}: {payload}")
            self.failed += not ok


async def capacity(
    connection: Connection,
    requests: List[Tuple[bytes, float]],
    seconds: float,
    tally: Tally,
) -> Dict[str, Any]:
    """Read-only ``/bound`` rate of one caller sending back to back.

    With one request outstanding no backlog can form, and client and
    server never compete for a core, so on a small shared host the
    figure tracks the service's per-request cost instead of how many
    cores the host lends at the moment.
    """
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    started = loop.time()
    end = started + seconds
    while loop.time() < end or not latencies:
        body, expected = requests[len(latencies) % len(requests)]
        sent = loop.time()
        status, payload = await connection.request_raw("POST", "/bound", body)
        latencies.append((loop.time() - sent) * 1e3)
        tally.count(
            status == 200
            and close(payload.get("epsilon"), expected, EPSILON_RTOL),
            f"/bound answered {status}: {payload}",
        )
    return {
        "max_rps": len(latencies) / (loop.time() - started),
        "p99_ms": percentile(latencies, 99),
        "samples": len(latencies),
    }


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
async def _serve(seed: int, seconds: float, trace: bool, env, root) -> Dict[str, Any]:
    tally = Tally()
    requests = bound_requests(seed)
    setups: List[float] = []
    shutdowns: List[Dict[str, Any]] = []
    for _ in range(SETUP_SPAWNS - 1):
        server, connection, ready = await spawn_ready(env, root, requests, tally)
        setups.append(ready)
        shutdowns.append(await server.stop())
        connection.abandon()
    server, bounds, ready = await spawn_ready(env, root, requests, tally)
    setups.append(ready)
    jobs = Connection(HOST, server.port)
    stream = JobStream(jobs, seed, tally, trace)
    latencies: List[float] = []
    late: List[float] = []
    phases: List[Dict[str, Any]] = []
    tops: List[Dict[str, Any]] = []
    try:
        await jobs.open()
        sampler_s = await warm_sampler(jobs, seed, tally)
        _, stats_before = await jobs.request("GET", "/stats")
        for _ in range(PHASES):
            stop = asyncio.Event()
            job_task = asyncio.ensure_future(stream.run(stop))
            mixed = await open_loop(
                bounds, requests, MIXED_RATE,
                seconds * MIXED_SHARE / PHASES, tally,
            )
            stop.set()
            await job_task
            latencies += mixed["latencies_ms"]
            late += mixed["late_ms"]
            phases.append({
                "samples": len(mixed["latencies_ms"]),
                "p50_ms": median(mixed["latencies_ms"]),
                "p90_ms": percentile(mixed["latencies_ms"], 90),
                "beyond_p90": beyond(mixed["latencies_ms"], 90),
            })
            tops.append(await capacity(
                bounds, requests, seconds * (1.0 - MIXED_SHARE) / PHASES, tally
            ))
        _, stats_after = await jobs.request("GET", "/stats")
        peak_rss = server.peak_rss_mib()
    finally:
        # SIGINT with both keep-alive connections still open, as a real
        # client would leave them.
        shutdown = await server.stop()
        bounds.abandon()
        jobs.abandon()
    shutdowns.append(shutdown)
    for entry in shutdowns:
        tally.count(
            entry["exit_status"] == 0,
            f"server exited {entry['exit_status']} after SIGINT",
        )
    top = max(tops, key=lambda step: step["max_rps"])

    run_jobs = stream.latencies["/run"]
    job_latencies = stream.latencies["/audit"] + run_jobs
    report: Dict[str, Any] = {
        "bound_samples": len(latencies),
        "bound_phases": phases,
        "bound_p99_ms": percentile(latencies, 99),
        "bound_beyond_p99": beyond(latencies, 99),
        "mixed_rate": MIXED_RATE,
        "jobs": stream.index,
        "audit_job_s": stream.latencies["/audit"],
        "run_job_s": run_jobs,
        "capacity": tops,
        "setup_spawns_s": setups,
        "setup_sampler_s": sampler_s,
        "shutdowns": shutdowns,
        "generator_late_ms_max": max(late),
    }
    metrics = {
        "setup_s": (median(setups) + sampler_s, "s"),
        "run_s": (median(run_jobs or [math.nan]), "s"),
        "job_s": (median(job_latencies or [math.nan]), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
        "bound_p50_ms": (median([p["p50_ms"] for p in phases]), "ms"),
        "bound_p90_ms": (median([p["p90_ms"] for p in phases]), "ms"),
        "bound_max_rps": (top["max_rps"], "req/s"),
    }
    if not (run_jobs and job_latencies):
        tally.count(False, "no /run job finished in the mixed phases")
    outcome: Dict[str, Any] = {"tally": tally, "report": report, "metrics": metrics}
    if trace:
        outcome.update(_serve_layers(
            seed, latencies, late, stream, shutdowns, stats_before, stats_after
        ))
    return outcome


def _route_mean_ms(before: Dict[str, Any], after: Dict[str, Any], route: str) -> float:
    """Server-side mean time of ``route`` between two ``/stats`` reads."""
    first = before["requests"].get(route, {"count": 0, "mean_ms": 0.0})
    second = after["requests"][route]
    count = second["count"] - first["count"]
    total = second["count"] * second["mean_ms"] - first["count"] * first["mean_ms"]
    return total / count


def _serve_layers(seed, latencies, late, stream, shutdowns, before, after):
    """Per-layer figures of the traced run (server counters + replays)."""
    layers: Dict[str, Any] = {}
    # serve/api: server-side route time vs. what the client saw, and the
    # in-process cost of the same request.
    requests = bound_requests(seed)
    in_process = []
    for body, _ in requests * 5:
        started = time.perf_counter()
        parsed = json.loads(body)
        api.bound_payload(
            api.bound(api.parse_scenario(parsed["scenario"]), rounds=parsed["rounds"])
        )
        in_process.append((time.perf_counter() - started) * 1e3)
    layers["serve.route_ms"] = _route_mean_ms(before, after, "POST /bound")
    layers["serve.self_ms"] = median(latencies) - median(in_process)
    layers["serve.queue_depth_max"] = max(stream.queue_depths or [0])
    layers["serve.generator_late_ms"] = percentile(late, 99)
    layers["serve.jobs_failed"] = stream.failed
    layers["serve.shutdown_tracebacks"] = sum(s["tracebacks"] for s in shutdowns)
    graph_before, graph_after = before["graph_cache"], after["graph_cache"]
    layers["scenario.graph_builds"] = graph_after["builds"] - graph_before["builds"]
    layers["scenario.graph_hits"] = (
        graph_after["memory_hits"] + graph_after["disk_hits"]
        - graph_before["memory_hits"] - graph_before["disk_hits"]
    )
    sampler_before, sampler_after = before["kernel_sampler"], after["kernel_sampler"]
    layers["auditing.sampler_builds"] = sampler_after["builds"] - sampler_before["builds"]
    layers["auditing.sampler_hits"] = sampler_after["hits"] - sampler_before["hits"]

    # auditing: the audit job's scenario in-process, warm (as the
    # server's memoized sampler makes it), after one cold call.
    _, body = job_body(seed, 0)
    audit_scenario = api.parse_scenario(body["scenario"])
    api.audit(audit_scenario, trials=AUDIT_TRIALS)
    started = time.perf_counter()
    api.audit(audit_scenario, trials=AUDIT_TRIALS)
    layers["auditing.audit_s"] = time.perf_counter() - started

    # graphs/netsim/protocols/amplification: the mixed phase's /run job
    # scenarios hand-wired, each against an untraced in-process
    # repro.run whose central epsilon must also match the server's.
    points, untraced = [], []
    for index, served in sorted(stream.run_epsilons.items())[:TRACED_RUNS]:
        _, body = job_body(seed, index)
        run_scenario = api.parse_scenario(body["scenario"])
        api.clear_graph_cache()
        started = time.perf_counter()
        reference = api.run(run_scenario)
        untraced.append(time.perf_counter() - started)
        point = tracing.traced_point(run_scenario, reference)
        if not close(served, reference.central_epsilon, EPSILON_RTOL):
            point["fidelity"].append(
                f"served /run epsilon {served!r} != in-process "
                f"{reference.central_epsilon!r}"
            )
        points.append(point)
    if not points:
        return {"layers": layers, "fidelity_ok": False,
                "fidelity_failures": ["no /run job finished to replay"]}
    layers.update(tracing.summarize(points, tracing.POINT_FIGURES))
    traced = tracing.summarize(points, ["traced_run_s"])["traced_run_s"]
    layers["trace.run_s"] = traced
    layers["trace.untraced_run_s"] = median(untraced)
    layers["trace.overhead_s"] = traced - median(untraced)
    failures = tracing.fidelity_failures(points)
    return {
        "layers": layers,
        "fidelity_ok": not failures,
        "fidelity_failures": failures,
    }


def run_serve(seed: int, seconds: float, trace: bool, *, env, root) -> Dict[str, Any]:
    outcome = asyncio.run(_serve(seed, seconds, trace, env, root))
    if trace:
        outcome["report"]["fidelity_failures"] = outcome.pop("fidelity_failures")
    return outcome
