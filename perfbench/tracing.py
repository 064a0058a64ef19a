"""The traced pipeline: one scenario execution hand-wired from the public
functions of each layer, with a timer around every call.

``traced_point`` rebuilds what ``repro.run`` does — graph, spectral
summary, values, protocol, theorem bound, Theorem 6.1 — through the
``seed_streams`` determinism contract, then replays the protocol's
network calls on a generator in the same state to split the protocol
time into its netsim part and its own part.  Every traced execution is
compared with the untraced reference outcome: allocation vector,
delivered reports and payloads must match bit for bit, and the central
epsilon must match exactly when priced from the reference's spectral
summary (within 1e-9 from a fresh one, which carries ARPACK start-vector
noise).  Any mismatch is a fidelity failure and voids the layer numbers.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List

import numpy as np

from repro.amplification.network_shuffle import (
    epsilon_all_stationary,
    epsilon_from_report_sizes,
    epsilon_single_stationary,
)
from repro.graphs.spectral import spectral_summary
from repro.netsim.network import RoundBasedNetwork
from repro.protocols.all_protocol import resolve_backend, run_all_protocol
from repro.protocols.reports import Report
from repro.protocols.single_protocol import run_single_protocol
from repro.scenario.builders import DUMMIES, GRAPHS, MECHANISMS, VALUES
from repro.scenario.cache import seed_streams
from repro.scenario.runner import graph_summary

#: Tolerance between two independent ARPACK solves of one graph.
ARPACK_RTOL = 1e-9


class Spans:
    """Seconds spent per named layer call, in call order."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def timed(self, span: str, function, /, *args, **kwargs):
        started = time.perf_counter()
        value = function(*args, **kwargs)
        self.seconds[span] = self.seconds.get(span, 0.0) + (
            time.perf_counter() - started
        )
        return value


def build_graph(scenario, spans: Spans):
    """``GRAPHS.build`` + ``spectral_summary`` as the runner would."""
    streams = seed_streams(scenario.seed)
    graph = spans.timed(
        "graphs.build_s",
        GRAPHS.build, scenario.graph.kind, streams.graph,
        **scenario.graph.params,
    )
    summary = spans.timed("graphs.spectral_s", spectral_summary, graph)
    return graph, summary


def _theorem(scenario, epsilon0: float, n: int, sum_squared: float):
    if scenario.protocol == "all":
        return epsilon_all_stationary(
            epsilon0, n, sum_squared, scenario.delta, scenario.delta2
        )
    return epsilon_single_stationary(epsilon0, n, sum_squared, scenario.delta)


def _same_payloads(left: List[Any], right: List[Any]) -> bool:
    if len(left) != len(right):
        return False
    if left and isinstance(left[0], np.ndarray):
        return np.array_equal(np.stack(left), np.stack(right))
    return list(left) == list(right)


def traced_point(
    scenario,
    reference,
    *,
    graph=None,
    summary=None,
) -> Dict[str, Any]:
    """Trace one execution of ``scenario`` against its reference outcome.

    ``reference`` is the untraced ``RunResult`` of the same scenario.
    ``graph``/``summary`` are passed when the graph is shared by every
    point (a pinned dataset sweep), so they are built once outside.

    Returns the layer seconds and counts plus ``fidelity`` (a list of
    mismatch descriptions, empty when the trace reproduced the run).
    """
    spans = Spans()
    started = time.perf_counter()
    if graph is None:
        graph, summary = build_graph(scenario, spans)
    streams = seed_streams(scenario.seed)
    n = graph.num_nodes
    rounds = scenario.rounds if scenario.rounds is not None else summary.mixing_time
    mechanism = MECHANISMS.build(
        scenario.mechanism.kind, **scenario.mechanism.params
    )
    values = spans.timed(
        "values.build_s",
        VALUES.build, scenario.values.kind, streams.values, n,
        **scenario.values.params,
    )
    protocol_kwargs = dict(
        values=values, randomizer=mechanism, engine=scenario.engine,
        rng=streams.protocol,
    )
    if scenario.protocol == "all":
        result = spans.timed(
            "protocols.run_s", run_all_protocol, graph, rounds, **protocol_kwargs
        )
    else:
        dummies = None
        if scenario.dummies is not None:
            dummies = DUMMIES.build(
                scenario.dummies.kind, mechanism, **scenario.dummies.params
            )
        result = spans.timed(
            "protocols.run_s", run_single_protocol, graph, rounds,
            dummy_factory=dummies, **protocol_kwargs,
        )
    bound = spans.timed(
        "amplification.bound_s",
        _theorem, scenario, mechanism.epsilon, n,
        summary.sum_squared_bound(rounds),
    )
    empirical = None
    if scenario.protocol == "all":
        empirical = spans.timed(
            "amplification.thm61_s",
            epsilon_from_report_sizes,
            mechanism.epsilon, result.allocation, scenario.delta,
        )
    traced_seconds = time.perf_counter() - started

    replay = _replay_network(scenario, graph, rounds, mechanism, values)
    out: Dict[str, Any] = dict(spans.seconds)
    out.update(replay["seconds"])
    out["traced_run_s"] = traced_seconds
    out["protocols.self_s"] = out["protocols.run_s"] - sum(
        replay["seconds"].values()
    )
    out["protocol"] = scenario.protocol
    if scenario.protocol == "single":
        out["protocols.dummies"] = result.dummy_count
    out["graphs.nodes"] = n
    out["graphs.edges"] = graph.num_edges
    out["graphs.mixing_time"] = summary.mixing_time
    out["netsim.hops"] = n * rounds
    out["netsim.messages"] = replay["messages"]
    out["netsim.hops_per_s"] = n * rounds / replay["seconds"]["netsim.exchange_s"]

    mismatches = []
    expected = reference.protocol_result
    if not np.array_equal(result.allocation, expected.allocation):
        mismatches.append("protocol allocation differs from repro.run")
    if not np.array_equal(replay["allocation"], expected.allocation):
        mismatches.append("replayed netsim allocation differs from repro.run")
    if not (len(result.server_reports) == len(expected.server_reports) == n):
        mismatches.append("delivered report count differs")
    if replay["delivered"] != n:
        mismatches.append("replayed network did not hand over n reports")
    if not _same_payloads(result.payloads(), reference.payloads()):
        mismatches.append("delivered payloads differ from repro.run")
    cached = graph_summary(scenario)
    exact = _theorem(
        scenario, mechanism.epsilon, n, cached.sum_squared_bound(rounds)
    )
    if exact.epsilon != reference.central_epsilon:
        mismatches.append(
            f"central epsilon {exact.epsilon!r} != run's "
            f"{reference.central_epsilon!r} on the same spectral summary"
        )
    if not abs(bound.epsilon - reference.central_epsilon) <= ARPACK_RTOL * abs(
        reference.central_epsilon
    ):
        mismatches.append("central epsilon from a fresh spectral summary drifts")
    if scenario.protocol == "all" and not (
        empirical is not None
        and math.isfinite(empirical)
        and empirical == reference.empirical_epsilon
    ):
        mismatches.append("Theorem 6.1 epsilon differs from repro.run")
    out["fidelity"] = mismatches
    return out


def _replay_network(scenario, graph, rounds, mechanism, values) -> Dict[str, Any]:
    """The protocol's network calls, alone, on an identically seeded
    generator: randomize first (untimed) so the generator reaches the
    state the protocol's network starts from."""
    rng = seed_streams(scenario.seed).protocol
    reports = {
        user: [Report(origin=user, payload=mechanism.randomize(value, rng))]
        for user, value in enumerate(values)
    }
    backend, faults = resolve_backend(scenario.engine, None, scenario.laziness)
    network = RoundBasedNetwork(graph, faults=faults, rng=rng, backend=backend)
    spans = Spans()
    spans.timed("netsim.seed_s", network.seed_items, reports)
    spans.timed("netsim.exchange_s", network.run_exchange, rounds)
    allocation = network.held_counts()
    if scenario.protocol == "all":
        spans.timed("netsim.deliver_s", network.deliver_to_server)
        delivered = len(network.server.reports)
    else:
        held = spans.timed("netsim.deliver_s", network.drain_held)
        delivered = sum(len(items) for items in held)
    return {
        "seconds": spans.seconds,
        "allocation": allocation,
        "delivered": delivered,
        "messages": int(network.meters.total_messages_sent()),
    }


#: Per-point figures ``traced_point`` yields.
POINT_FIGURES = [
    "graphs.build_s", "graphs.spectral_s", "graphs.nodes", "graphs.edges",
    "graphs.mixing_time", "values.build_s",
    "netsim.seed_s", "netsim.exchange_s", "netsim.deliver_s", "netsim.hops",
    "netsim.messages", "netsim.hops_per_s",
    "protocols.run_s", "protocols.self_s", "protocols.dummies",
    "amplification.bound_s", "amplification.thm61_s",
]


def summarize(points: List[Dict[str, Any]], names: List[str]) -> Dict[str, float]:
    """Each layer figure over the traced points that have it: the median
    per protocol, averaged over the protocols (a sweep point of either
    protocol is one point of the workload)."""
    out: Dict[str, float] = {}
    for name in names:
        medians = []
        for protocol in ("all", "single"):
            values = [
                point[name] for point in points
                if point["protocol"] == protocol and name in point
            ]
            if values:
                medians.append(np.median(values))
        if medians:
            out[name] = float(np.mean(medians))
    return out


def fidelity_failures(points: List[Dict[str, Any]]) -> List[str]:
    return [mismatch for point in points for mismatch in point["fidelity"]]
