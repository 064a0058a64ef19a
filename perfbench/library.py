"""The three in-process workloads: ``run_cold``, ``replica_sweep`` and
``mean_estimation``.

Each operation is timed untraced, then checked: every protocol delivers
exactly ``n`` reports, ``A_all``'s Theorem 6.1 epsilon is finite, the
run's central epsilon equals a standalone ``repro.bound`` of the same
scenario, and mean-estimation payloads have dimension ``d``.  With
``trace`` on, every operation is also replayed through
:mod:`perfbench.tracing`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import api
from repro.estimation.mean import mean_estimate_from_run

from perfbench import tracing
from perfbench.common import Tally, median, op_seed, own_peak_rss_mib

RR_BERNOULLI = {
    "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
    "values": {"kind": "bernoulli", "params": {"rate": 0.3}},
}

#: 10,000 users keep about ten cold runs in a 15 s run: the ARPACK time
#: of one random 8-regular graph varies up to 2x from graph to graph, so
#: the median needs that many.  27 rounds is the mixing time at this n.
RUN_COLD = {
    "graph": {"kind": "k_regular", "params": {"degree": 8, "num_nodes": 10_000}},
    "protocol": "all",
    "rounds": 27,
    **RR_BERNOULLI,
}

GOOGLE_SCALE = 0.03
REPLICA_SWEEP = {
    "graph": {
        "kind": "dataset",
        "params": {"name": "google", "scale": GOOGLE_SCALE, "seed": 2022},
    },
    **RR_BERNOULLI,
}

PRIVUNIT_DIMENSION = 200
MEAN_ESTIMATION = {
    "graph": {"kind": "dataset", "params": {"name": "twitch", "seed": 2022}},
    "mechanism": {
        "kind": "privunit",
        "params": {"epsilon": 2.0, "dimension": PRIVUNIT_DIMENSION},
    },
    "values": {
        "kind": "bimodal_unit_vectors",
        "params": {"dimension": PRIVUNIT_DIMENSION},
    },
    "dummies": {"kind": "privunit_normal", "params": {}},
}

PROTOCOLS = ["all", "single"]


def scenario(base: Dict[str, Any], seed: int):
    return api.parse_scenario({**base, "seed": seed})


@dataclass
class Measurements:
    """Raw samples of one run, reduced to metrics at the end."""

    run_s: List[float]
    #: ``mean_estimate_from_run`` wall times (mean_estimation only).
    estimation_s: List[float] = field(default_factory=list)
    traced: Optional[List[Dict[str, Any]]] = None
    untraced_point_s: Optional[List[float]] = None

    @classmethod
    def empty(cls, trace: bool) -> "Measurements":
        return cls([], traced=[] if trace else None,
                   untraced_point_s=[] if trace else None)


def check_run(tally: Tally, result, label: str) -> None:
    """Output checks shared by every executed scenario."""
    n = result.protocol_result.num_users
    delivered = len(result.protocol_result.server_reports)
    tally.check(delivered == n, f"{label}: {delivered} reports reached the server, n={n}")
    if result.protocol_result.protocol == "all":
        empirical = result.empirical_epsilon
        tally.check(
            empirical is not None and math.isfinite(empirical),
            f"{label}: Theorem 6.1 epsilon is {empirical!r}",
        )


def check_bound(tally: Tally, scenario_, epsilon: float, label: str) -> None:
    """The run's central epsilon is the standalone ``repro.bound``'s."""
    standalone = api.bound(scenario_).epsilon
    tally.check(
        standalone == epsilon,
        f"{label}: run central epsilon {epsilon!r} != bound {standalone!r}",
    )


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def run_cold_op(seed: int, index: int, tally: Tally, out: Measurements) -> None:
    """One cold one-shot ``repro.run`` on a fresh random-regular graph."""
    label = f"run_cold[{index}]"
    scenario_ = scenario(RUN_COLD, op_seed(seed, "run_cold", index))
    with tally.op(label):
        api.clear_graph_cache()
        started = time.perf_counter()
        result = api.run(scenario_)
        elapsed = time.perf_counter() - started
        out.run_s.append(elapsed)
        check_run(tally, result, label)
        check_bound(tally, scenario_, result.central_epsilon, label)
        if out.traced is not None:
            out.untraced_point_s.append(elapsed)
            out.traced.append(tracing.traced_point(scenario_, result))


def sweep_op(
    name: str,
    base: Dict[str, Any],
    seed: int,
    index: int,
    tally: Tally,
    out: Measurements,
    shared_graph: Optional[tuple] = None,
    extra_check: Optional[Callable[[Tally, Any, str, Measurements], None]] = None,
) -> None:
    """One sequential ``repro.sweep`` call: one seed x both protocols."""
    seeds = [op_seed(seed, name, index)]
    started = time.perf_counter()
    try:
        result = api.sweep(
            scenario(base, seeds[0]),
            axis={"seed": seeds, "protocol": PROTOCOLS},
            mode="run",
            results="full",
        )
    except Exception as error:  # noqa: BLE001 — every point of the call failed
        for protocol in PROTOCOLS:
            tally.count(False, f"{name}[{index}:{protocol}]: raised "
                               f"{type(error).__name__}: {error}")
        return
    elapsed = time.perf_counter() - started
    out.run_s.append(elapsed / len(result))
    for point in result:
        label = f"{name}[{index}:{point.coordinates['protocol']}]"
        with tally.op(label):
            if not tally.check(point.failure is None, f"{label}: {point.failure}"):
                continue
            check_run(tally, point.outcome, label)
            if extra_check is not None:
                extra_check(tally, point.outcome, label, out)
            check_bound(
                tally, point.scenario, point.outcome.central_epsilon, label
            )
            if out.traced is not None:
                graph, summary = shared_graph
                out.traced.append(tracing.traced_point(
                    point.scenario, point.outcome, graph=graph, summary=summary
                ))
    if out.traced is not None:
        out.untraced_point_s.append(elapsed / len(result))


def check_mean_estimate(tally: Tally, result, label: str,
                        out: Measurements) -> None:
    """Figure 9 scoring: the server's estimate has dimension ``d``."""
    started = time.perf_counter()
    estimate = mean_estimate_from_run(result)
    scored = time.perf_counter() - started
    payloads = result.payloads()
    tally.check(
        all(np.shape(payload) == (PRIVUNIT_DIMENSION,) for payload in payloads),
        f"{label}: a payload is not {PRIVUNIT_DIMENSION}-dimensional",
    )
    tally.check(
        estimate.estimate.shape == (PRIVUNIT_DIMENSION,)
        and math.isfinite(estimate.squared_error),
        f"{label}: mean estimate shape {estimate.estimate.shape}, "
        f"error {estimate.squared_error}",
    )
    out.estimation_s.append(scored)


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LibraryWorkload:
    base: Dict[str, Any]
    #: Sweep workloads build their pinned graph in setup; run_cold has
    #: nothing that later operations reuse.
    warm_graph: bool
    extra_check: Optional[Callable[[Tally, Any, str, Measurements], None]] = None


WORKLOADS = {
    "run_cold": LibraryWorkload(RUN_COLD, warm_graph=False),
    "replica_sweep": LibraryWorkload(REPLICA_SWEEP, warm_graph=True),
    "mean_estimation": LibraryWorkload(
        MEAN_ESTIMATION, warm_graph=True, extra_check=check_mean_estimate
    ),
}


def warm_state(name: str, seed: int) -> None:
    """Build what later operations reuse: the sweep's pinned graph and
    its spectral summary.  ``run_cold`` reuses nothing."""
    workload = WORKLOADS[name]
    if workload.warm_graph:
        api.bound(scenario(workload.base, op_seed(seed, name + "-warm", 0)))


def run_library(name: str, seed: int, seconds: float, trace: bool,
                setups: List[float]) -> Dict[str, Any]:
    """Run one library workload; returns metrics, tally and report.

    Untraced, the caller has built the warm state and measured
    ``setups`` (this process's set-up and fresh probes').  Traced, the
    hand-wired graph build runs first, while the process is still cold,
    and the warm state follows it.
    """
    workload = WORKLOADS[name]
    tally = Tally()
    out = Measurements.empty(trace)
    cache_before = api.cache_stats()
    layer_setup: Dict[str, float] = {}
    shared_graph = None
    if trace:
        if workload.warm_graph:
            spans = tracing.Spans()
            shared_graph = tracing.build_graph(
                scenario(workload.base, op_seed(seed, name + "-warm", 0)), spans
            )
            layer_setup = spans.seconds
        warm_state(name, seed)

    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        if workload.warm_graph:
            sweep_op(name, workload.base, seed, index, tally, out,
                     shared_graph=shared_graph,
                     extra_check=workload.extra_check)
        else:
            run_cold_op(seed, index, tally, out)
        index += 1
    cache_after = api.cache_stats()

    report: Dict[str, Any] = {
        "operations": index,
        "setup_samples_s": setups,
    }
    metrics: Dict[str, tuple] = {}
    if not trace:
        if not out.run_s:
            return {"tally": tally, "metrics": {}, "report": report}
        metrics = {
            "setup_s": (median(setups), "s"),
            "run_s": (median(out.run_s), "s"),
            "peak_rss_mib": (own_peak_rss_mib(), "MiB"),
        }
        report["run_s_samples"] = out.run_s
        return {"tally": tally, "metrics": metrics, "report": report}

    failures = tracing.fidelity_failures(out.traced)
    report["fidelity_failures"] = failures
    if not out.traced:
        return {"tally": tally, "layers": {}, "fidelity_ok": False,
                "report": report}
    layers = tracing.summarize(out.traced, tracing.POINT_FIGURES)
    layers.update(layer_setup)
    traced_run = tracing.summarize(out.traced, ["traced_run_s"])["traced_run_s"]
    untraced_run = median(out.untraced_point_s)
    if workload.warm_graph:
        # The sweep's graph was built once, outside any point.
        layers["scenario.sweep_self_s"] = untraced_run - traced_run
    layers["trace.run_s"] = traced_run
    layers["trace.untraced_run_s"] = untraced_run
    layers["trace.overhead_s"] = traced_run - untraced_run
    layers["scenario.graph_builds"] = cache_after["builds"] - cache_before["builds"]
    layers["scenario.graph_hits"] = (
        cache_after["memory_hits"] + cache_after["disk_hits"]
        - cache_before["memory_hits"] - cache_before["disk_hits"]
    )
    if out.estimation_s:
        layers["estimation.mean_s"] = median(out.estimation_s)
    return {
        "tally": tally,
        "layers": layers,
        "fidelity_ok": not failures,
        "report": report,
    }
