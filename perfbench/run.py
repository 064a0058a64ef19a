"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root: the library is imported from ``src/``.
With ``--trace 0`` the last output line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` the same workload runs once more
hand-wired through each layer and the line carries the per-layer
metrics instead.  See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

STARTED = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

WORKLOADS = ("run_cold", "replica_sweep", "mean_estimation", "serve_mixed")


def layer_metrics() -> dict:
    """Name -> unit of the per-layer metrics ``BENCHMARK.json`` declares.

    Only the figures every workload's traced run has are declared there;
    ``protocols.dummies``, ``estimation.*``, ``auditing.*``, ``serve.*``
    and ``scenario.sweep_self_s`` are printed in the report line.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return {
            metric["name"]: metric["unit"]
            for metric in json.load(spec)["per_layer"]
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(
            f"perfbench: no library sources under {SOURCE}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SOURCE, ROOT]
    env = dict(os.environ)
    env["PYTHONPATH"] = SOURCE + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    from perfbench import common

    ticks = common.cpu_ticks()
    trace = bool(args.trace)
    if args.workload == "serve_mixed":
        from perfbench import serving

        outcome = serving.run_serve(
            args.seed, args.seconds, trace, env=env, root=ROOT
        )
    else:
        from perfbench import library

        setups = []
        if not trace:
            library.warm_state(args.workload, args.seed)
            setups = [time.perf_counter() - STARTED] + common.setup_probes(
                env, [SOURCE, ROOT], args.workload, args.seed
            )
        outcome = library.run_library(
            args.workload, args.seed, args.seconds, trace, setups
        )
    report = outcome["report"]
    report["provenance"] = common.provenance()
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["trace"] = trace
    report["wall_s"] = time.perf_counter() - STARTED
    steal, total = (
        after - before for after, before in zip(common.cpu_ticks(), ticks)
    )
    report["host_steal_share"] = steal / total if total else None
    fidelity_ok = outcome.get("fidelity_ok", True)
    if trace:
        layers = outcome["layers"]
        report["layers"] = layers
        metrics = {}
        if fidelity_ok:
            metrics = {
                name: (layers[name], unit)
                for name, unit in layer_metrics().items()
            }
    else:
        metrics = outcome["metrics"]
    common.emit(
        workload=args.workload,
        tally=outcome["tally"],
        metrics=metrics,
        report=report,
        fidelity_ok=fidelity_ok,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
