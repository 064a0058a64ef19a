"""Shared pieces of the benchmark: seeds, timing statistics, failure
accounting, provenance and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Workload seed that later gain claims must also hold on; the ten-seed
#: steadiness runs use 1..10, so this one is never tuned against.
HELD_OUT_SEED = 7919

#: Fresh interpreters that repeat a library workload's set-up per run,
#: besides the benchmark process itself.
SETUP_PROBES = 2

#: A fresh interpreter's set-up: import the library and build the
#: workload's warm state, then print the seconds that took.
SETUP_PROBE_CODE = """
import time
started = time.perf_counter()
import sys
sys.path[:0] = {paths!r}
from perfbench import library
library.warm_state({name!r}, {seed!r})
print(time.perf_counter() - started)
"""


def op_seed(seed: int, workload: str, index: int) -> int:
    """The scenario seed of operation ``index``, derived from ``seed``.

    Every per-operation seed comes from the workload seed, so the same
    ``--seed`` replays the same inputs and no two workloads share seeds.
    """
    sequence = np.random.SeedSequence(
        [int(seed), index] + [ord(char) for char in workload]
    )
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return statistics.median(samples)


def beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons.

    An operation fails if it raises, returns a non-2xx status, or fails
    an output check; it counts once however many of its checks fail.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    _op_failed: bool = False

    @contextmanager
    def op(self, label: str) -> Iterator["Tally"]:
        self.attempted += 1
        self._op_failed = False
        try:
            yield self
        except Exception as error:  # noqa: BLE001 — a raising op is a failed op
            self.fail(f"{label}: raised {type(error).__name__}: {error}")
        finally:
            self._op_failed = False

    def fail(self, reason: str) -> None:
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if not condition:
            self.fail(reason)
        return bool(condition)

    def count(self, ok: bool, reason: str) -> None:
        """One self-contained operation (a request) that passed or not."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def close(a: Optional[float], b: Optional[float], rtol: float) -> bool:
    return (
        a is not None
        and b is not None
        and math.isfinite(a)
        and math.isfinite(b)
        and abs(a - b) <= rtol * max(abs(a), abs(b))
    )


# ----------------------------------------------------------------------
# Process measurements
# ----------------------------------------------------------------------
def own_peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of the host's CPUs, or (0, 0) if unknown.

    The share of steal over a run tells how much CPU a shared host took
    away while it ran, which is what moves its timings between runs.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def setup_probes(
    env: Dict[str, str], paths: List[str], name: str, seed: int,
    repeats: int = SETUP_PROBES,
) -> List[float]:
    """Set-up seconds of fresh interpreters (see ``SETUP_PROBE_CODE``)."""
    code = SETUP_PROBE_CODE.format(paths=paths, name=name, seed=seed)
    samples = []
    for _ in range(repeats):
        probe = subprocess.run(
            [sys.executable, "-c", code],
            env=env, check=True, timeout=170, capture_output=True, text=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def _blas_threads() -> Any:
    """OpenBLAS thread count as NumPy's bundled library reports it."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def provenance() -> Dict[str, Any]:
    """Versions, host and backend the figures were measured with."""
    import networkx
    import scipy

    import repro
    from repro import api

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "repro_version": repro.__version__,
        "code_version": api.code_version(),
        "backend": api.backend_info(),
        "held_out_seed": HELD_OUT_SEED,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def emit(
    *,
    workload: str,
    tally: Tally,
    metrics: Dict[str, tuple],
    report: Dict[str, Any],
    fidelity_ok: bool = True,
) -> None:
    """Print the human report, then the one-line JSON result last."""
    for name, (value, unit) in metrics.items():
        print(f"{workload:16s} {name:28s} {value:14.6g} {unit}")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": tally.failed == 0 and fidelity_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A figure with no samples is left out (JSON has no NaN); the
        # operation that would have produced it is counted as failed.
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
            if math.isfinite(value)
        },
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
