"""CI smoke test for the campaign store's incremental-re-run contract.

Runs the same small sweep twice through ``python -m repro sweep --store``
against a temporary store, asserts the second pass computed 0 points
(everything reused), checks ``results diff`` of the two campaigns is
empty, and answers a cross-campaign aggregate through ``results query``
as a real subprocess.  It does so for a ``--mode bound`` grid and for a
``--mode run`` grid, whose points the store keeps as run digests.
Exits non-zero on any failure.

Usage: python scripts/store_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIO = {
    "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 128}},
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "rounds": 4,
    "seed": 0,
}

SWEEP_ARGS = [
    "--axis", "rounds=2,4,8",
    "--axis", "mechanism.epsilon=0.5,1.0",
    "--mode", "bound",
]

RUN_SWEEP_ARGS = [
    "--axis", "rounds=2,4",
    "--axis", "protocol=all,single",
    "--mode", "run",
]


def run_cli(*arguments: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"command {' '.join(arguments)} exited {result.returncode}:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    return result.stdout


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-store-smoke-") as tmp:
        directory = Path(tmp)
        scenario_path = directory / "scenario.json"
        scenario_path.write_text(json.dumps(SCENARIO))
        store = str(directory / "results.sqlite")

        def stored_twice(sweep_args, points, campaign):
            first = run_cli(
                "sweep", str(scenario_path), *sweep_args,
                "--store", store, "--campaign", f"{campaign}-one",
            )
            print(first)
            assert f"{points} computed, 0 reused" in first, first

            second = run_cli(
                "sweep", str(scenario_path), *sweep_args,
                "--store", store, "--campaign", f"{campaign}-two",
            )
            print(second)
            assert f"0 computed, {points} reused" in second, second

            diff = run_cli(
                "results", "diff", f"{campaign}-one", f"{campaign}-two",
                "--store", store,
            )
            print(diff)
            assert "no differences" in diff, diff

        stored_twice(SWEEP_ARGS, 6, "pass")
        stored_twice(RUN_SWEEP_ARGS, 4, "run")

        query = run_cli(
            "results", "query", "--store", store,
            "--x", "rounds", "--y", "epsilon",
            "--group-by", "mechanism.epsilon", "--mode", "bound", "--json",
        )
        rows = json.loads(query)
        # 2 mechanism epsilons x 3 rounds values, one point per cell.
        assert len(rows) == 6, rows
        assert all(row["points"] == 1 for row in rows), rows
        assert all(row["mean"] > 0 for row in rows), rows
        print(f"query: {len(rows)} aggregate cells, all positive epsilon")

    print("store smoke: OK")


if __name__ == "__main__":
    main()
