#!/usr/bin/env python
"""Backend comparison: one scenario, two backends, identical results.

The exchange backend is a per-scenario knob: ``"faithful"`` replays the
paper's per-message loop, ``"vectorized"`` (alias ``"fast"``) runs
flat-array rounds — on numba JIT kernels when the ``[compiled]`` extra
is installed, on NumPy otherwise.  Both share one RNG contract, so every
trajectory, meter, and payload is bit-identical — this example runs the
same seeded scenario on each backend, checks that, and prints the
wall-clock alongside which kernels the array engine runs.

Run:  python examples/backend_comparison.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import Scenario, run
from repro.netsim.kernels import backend_info

EPSILON0 = 1.0
NUM_USERS = 5_000
ROUNDS = 12

ENGINES = ("faithful", "vectorized")


def main() -> None:
    base = Scenario(
        graph={"kind": "k_regular", "params": {"degree": 8, "num_nodes": NUM_USERS}},
        mechanism={"kind": "rr", "params": {"epsilon": EPSILON0}},
        values={"kind": "bernoulli", "params": {"rate": 0.3}},
        rounds=ROUNDS,
        seed=7,
    )

    info = backend_info()
    print(f"array engine kernels: {info['compiled_kernels']} "
          f"(numba available: {info['numba_available']})")

    results = {}
    for engine in ENGINES:
        start = time.perf_counter()
        result = run(replace(base, engine=engine))
        elapsed = time.perf_counter() - start
        results[engine] = result
        print(f"{engine:>10}: {elapsed * 1000:7.1f} ms")

    # The RNG contract makes the backends interchangeable, not merely
    # statistically similar: same seed -> same bits on every backend.
    reference, other = results["faithful"], results["vectorized"]
    assert other.payloads() == reference.payloads()
    assert other.central_epsilon == reference.central_epsilon
    print(f"both backends bit-identical "
          f"(eps = {reference.central_epsilon:.3f})")


if __name__ == "__main__":
    main()
