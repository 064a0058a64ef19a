"""CI smoke test for the sweep engine's fault tolerance (ISSUE 8).

Drives ``python -m repro sweep`` and ``python -m repro serve`` as real
subprocesses through three injected disasters and asserts the recovery
contracts hold end-to-end:

1. **Killed worker** — a pooled, store-backed sweep whose grid point 1
   ``os._exit``\\ s its worker process once.  Under ``--on-error collect
   --retries 2`` the pool is rebuilt, the point retried, and the sweep
   completes with every point computed and recorded.
2. **Hard interrupt + resume** — a sequential, store-backed sweep whose
   grid point 2 ``os._exit``\\ s the whole CLI process mid-campaign (no
   ``finally`` runs: the closest thing to a power cut).  The store
   keeps the two checkpointed points and a campaign stuck ``running``;
   a fault-free re-run computes only the missing tail and finishes
   ``complete``.
3. **Hung served job** — ``serve --workers 1 --job-timeout 2`` whose
   job 1 (a served job's point index is its job number) hangs for two
   minutes.  Job 1 answers ``ExecutionTimeoutError``/504, job 2 —
   queued behind it on the only worker — finishes within 30 s, which
   only a killed worker allows, and the server exits 0 on SIGINT.

Fault plans travel to the subprocesses via the ``REPRO_FAULTS``
environment variable (see :mod:`repro.testing.faults`); firing counters
live in an explicit directory so this parent can verify the faults
actually fired.  Exits non-zero on any failure.

Usage: python scripts/chaos_smoke.py
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.testing import FaultRule, inject  # noqa: E402

SCENARIO = {
    "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 128}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "rounds": 4,
    "seed": 0,
}


def run_cli(*arguments: str, expect: int = 0) -> "subprocess.CompletedProcess":
    result = subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        capture_output=True, text=True, timeout=300,
    )
    if result.returncode != expect:
        raise SystemExit(
            f"command {' '.join(arguments)} exited {result.returncode} "
            f"(wanted {expect}):\n{result.stdout}\n{result.stderr}"
        )
    return result


def point_count(store: str) -> int:
    connection = sqlite3.connect(store)
    try:
        return connection.execute("SELECT COUNT(*) FROM points").fetchone()[0]
    finally:
        connection.close()


def killed_worker_is_retried(directory: Path) -> None:
    """Phase 1: a pooled sweep survives a murdered worker process."""
    scenario_path = directory / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    store = str(directory / "chaos-pooled.sqlite")
    with inject(
        [FaultRule(point=1, action="exit", times=1)],
        directory=directory / "counters-pooled",
    ) as plan:
        output = run_cli(
            "sweep", str(scenario_path),
            "--axis", "rounds=2,4", "--axis", "mechanism.epsilon=0.5,1.0",
            "--mode", "bound", "--workers", "2",
            "--on-error", "collect", "--retries", "2",
            "--store", store, "--campaign", "chaos",
        ).stdout
        print(output)
        assert plan.fired(0) == 1, "the worker-kill fault never fired"
    assert "4 computed, 0 reused" in output, output
    assert "failed" not in output, output
    assert point_count(store) == 4, "store is missing recovered points"
    campaigns = run_cli("results", "campaigns", "--store", store).stdout
    assert "complete" in campaigns, campaigns
    print("chaos smoke phase 1 (killed worker retried): OK")


def interrupted_sweep_resumes(directory: Path) -> None:
    """Phase 2: a hard-killed sweep resumes from its checkpoints."""
    scenario_path = directory / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    store = str(directory / "chaos-resume.sqlite")
    sweep_args = (
        "sweep", str(scenario_path),
        "--axis", "rounds=2,4,8,16", "--mode", "bound",
        "--store", store, "--campaign", "doomed",
    )
    with inject(
        [FaultRule(point=2, action="exit", exit_code=17)],
        directory=directory / "counters-resume",
    ) as plan:
        # Sequential sweeps execute points in the CLI process itself,
        # so the injected os._exit kills the whole run mid-campaign.
        run_cli(*sweep_args, expect=17)
        assert plan.fired(0) == 1, "the hard-interrupt fault never fired"
    assert point_count(store) == 2, "expected exactly the checkpointed head"
    campaigns = run_cli("results", "campaigns", "--store", store).stdout
    assert "running" in campaigns, campaigns

    resumed = run_cli(
        "sweep", str(scenario_path),
        "--axis", "rounds=2,4,8,16", "--mode", "bound",
        "--store", store, "--campaign", "second-try",
    ).stdout
    print(resumed)
    assert "2 computed, 2 reused" in resumed, resumed
    assert point_count(store) == 4, "resume did not fill the missing tail"
    campaigns = run_cli("results", "campaigns", "--store", store).stdout
    assert "complete" in campaigns, campaigns
    print("chaos smoke phase 2 (interrupted sweep resumed): OK")


def request(connection, method: str, path: str, body=None):
    connection.request(
        method, path, body=None if body is None else json.dumps(body),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def wait_for_job(connection, job_id: str, seconds: float) -> dict:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        _, payload = request(connection, "GET", f"/jobs/{job_id}")
        if payload["status"] in ("done", "error"):
            return payload
        time.sleep(0.2)
    raise SystemExit(f"{job_id} did not finish within {seconds}s")


def hung_served_job_is_killed(directory: Path) -> None:
    """Phase 3: a served job past --job-timeout has its worker killed."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with inject(
        [FaultRule(point=1, action="hang", seconds=120)],
        directory=directory / "counters-serve",
    ) as plan:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--workers", "1", "--job-timeout", "2"],
        )
        try:
            deadline = time.monotonic() + 60
            while True:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=10)
                try:
                    request(connection, "GET", "/healthz")
                    break
                except OSError:
                    connection.close()
                    if time.monotonic() > deadline:
                        raise SystemExit("server never came up")
                    time.sleep(0.1)
            for expected in ("job-1", "job-2"):
                status, job = request(
                    connection, "POST", "/run", {"scenario": SCENARIO})
                assert status == 202 and job["id"] == expected, (status, job)
            hung = wait_for_job(connection, "job-1", 30)
            print(f"job-1: {hung['status']} {hung.get('error')}")
            assert hung["status"] == "error", hung
            assert hung["error"]["error"] == "ExecutionTimeoutError", hung
            assert hung["error"]["status"] == 504, hung
            queued = wait_for_job(connection, "job-2", 30)
            print(f"job-2: {queued['status']}")
            assert queued["status"] == "done", queued
            assert plan.fired(0) == 1, "the hang fault never fired"
            connection.close()
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                raise SystemExit("server did not exit on SIGINT")
    assert server.returncode == 0, f"server exited {server.returncode}"
    print("chaos smoke phase 3 (hung served job killed): OK")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        killed_worker_is_retried(Path(tmp))
        interrupted_sweep_resumes(Path(tmp))
        hung_served_job_is_killed(Path(tmp))
    print("chaos smoke: OK")


if __name__ == "__main__":
    main()
