"""CI smoke test for the serving tier.

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, waits for ``/healthz``, runs one synchronous bound query, checks
that a negative ``rounds`` override is a typed 400, runs one enqueued
audit round-trip, checks ``/stats`` saw the traffic (the audit, at 128
nodes and 8 rounds, must have picked the kernel engine and memoized one
sampler), and shuts the server down cleanly (SIGINT).  Exits non-zero
on any failure.

Usage: python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

SCENARIO = {
    "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 128}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "rounds": 8,
    "seed": 0,
}


def request(base: str, method: str, path: str, body=None, timeout=30):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_for_health(base: str, deadline_seconds: float = 30.0) -> dict:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            status, payload = request(base, "GET", "/healthz", timeout=2)
            if status == 200 and payload.get("status") == "ok":
                return payload
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError):
            time.sleep(0.1)
    raise SystemExit("server did not become healthy within 30s")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main() -> None:
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--workers", "1"],
    )
    try:
        health = wait_for_health(base)
        print(f"healthz: version {health['version']}")

        status, bound = request(base, "POST", "/bound", {"scenario": SCENARIO})
        assert status == 200, (status, bound)
        assert bound["epsilon"] > 0 and bound["n"] == 128, bound
        print(f"bound: eps={bound['epsilon']:.4f} via {bound['theorem']}")

        status, refusal = request(base, "POST", "/bound",
                                  {"scenario": SCENARIO, "rounds": -1})
        assert status == 400, (status, refusal)
        assert refusal["error"] == "ValidationError", refusal
        print(f"bound rounds=-1: {status} {refusal['error']}")

        status, job = request(base, "POST", "/audit",
                              {"scenario": SCENARIO, "trials": 200})
        assert status == 202 and job["id"].startswith("job-"), (status, job)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, payload = request(base, "GET", f"/jobs/{job['id']}")
            assert status == 200, (status, payload)
            if payload["status"] in ("done", "error"):
                break
            time.sleep(0.2)
        assert payload["status"] == "done", payload
        result = payload["result"]
        assert "epsilon_lower_bound" in result, result
        print(f"audit job {job['id']}: eps_hat="
              f"{result['epsilon_lower_bound']:.4f} "
              f"({result['trials']} trials)")

        status, stats = request(base, "GET", "/stats")
        assert status == 200, (status, stats)
        assert stats["graph_cache"]["requests"] >= 1, stats
        routes = set(stats["requests"])
        assert {"POST /bound", "POST /audit", "GET /jobs/<id>"} <= routes, routes
        assert stats["kernel_sampler"]["builds"] == 1, stats["kernel_sampler"]
        print(f"stats: graph_cache={stats['graph_cache']} "
              f"kernel_sampler={stats['kernel_sampler']}")
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise SystemExit("server did not exit cleanly on SIGINT")
    assert process.returncode == 0, f"server exited {process.returncode}"
    print("serve smoke: OK (clean shutdown)")


if __name__ == "__main__":
    main()
