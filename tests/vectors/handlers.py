"""Case handlers and the one canonical-bytes encoder.

Each handler runs one case's inputs and returns a list of byte strings;
:func:`digest` hashes them.  Exact values — ints, index arrays,
allocations, meters, payloads, floats by ``float.hex`` — go through
:func:`token`.  A figure that passes through LAPACK/ARPACK (the spectral
gap and everything derived from it: mixing times, Theorem 5.3-5.6
epsilons, experiment curves) enters at 10 significant digits
(:func:`figure`, ``token(..., figures=True)``), because the last bits
of an eigensolve differ between BLAS builds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from typing import Any, Callable, Dict, Iterable, List

import numpy as np

from repro.auditing import auditor
from repro.experiments import (
    figure4, figure5, figure6, figure7, figure8, figure9, table1, table3, table4,
)
from repro.experiments.config import ExperimentConfig
from repro.graphs import generators
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.netsim.message import SERVER_ID
from repro.protocols.secure import run_secure_protocol
from repro.scenario import Scenario, bound, clear_graph_cache, graph_summary, run


def figure(value: Any) -> bytes:
    """A LAPACK/ARPACK-derived float at 10 significant digits."""
    return b"None" if value is None else b"%.10g" % value


def token(value: Any, *, figures: bool = False) -> bytes:
    """Canonical bytes of one value, type included; dataclasses and
    sequences recurse.  ``figures`` sends floats through :func:`figure`."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__.encode() + b"(" + b",".join(
            field.name.encode() + b"=" + token(getattr(value, field.name), figures=figures)
            for field in dataclasses.fields(value)
        ) + b")"
    if isinstance(value, (list, tuple)):
        return type(value).__name__.encode() + b"[" + b",".join(
            token(item, figures=figures) for item in value
        ) + b"]"
    if isinstance(value, np.ndarray):
        head = b"ndarray:%s:%r:" % (value.dtype.str.encode(), value.shape)
        if figures and value.dtype.kind == "f":
            return head + b",".join(figure(item) for item in value.ravel().tolist())
        return head + np.ascontiguousarray(value).tobytes()
    if isinstance(value, float):
        return b"float:" + (figure(value) if figures else value.hex().encode())
    if isinstance(value, np.generic):
        return type(value).__name__.encode() + b":" + token(value.item(), figures=figures)
    return type(value).__name__.encode() + b":" + repr(value).encode()


def digest(parts: Iterable[bytes]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
        sha.update(b"|")
    return sha.hexdigest()


def _meter(meter) -> bytes:
    return b"%d,%d,%d,%d" % (
        meter.messages_sent, meter.messages_received, meter.current_items, meter.peak_items,
    )


def _build(spec: Dict[str, Any]):
    return getattr(generators, spec["generator"])(*spec["args"], **spec["kwargs"])


@contextlib.contextmanager
def _fresh_graph_cache():
    clear_graph_cache()
    try:
        yield
    finally:
        clear_graph_cache()


def graph_case(inputs) -> List[bytes]:
    graph = _build(inputs)
    return [token(graph.indptr.astype("<i8")), token(graph.indices.astype("<i8"))]


def run_case(inputs) -> List[bytes]:
    """Delivered origins and payloads (types included), ``delivered_by``,
    the allocation, every meter, the dummy count and both epsilons."""
    with _fresh_graph_cache():
        return run_parts(run(Scenario(**inputs)))


def run_parts(result) -> List[bytes]:
    """:func:`run_case`'s bytes of one :class:`~repro.scenario.RunResult`."""
    protocol = result.protocol_result
    return [
        *(token(report.origin) for report in protocol.server_reports),
        *(token(payload) for payload in protocol.payloads()),
        token(np.asarray(protocol.delivered_by)),
        token(np.asarray(protocol.allocation)),
        *(_meter(protocol.meters.meter(entity))
          for entity in [SERVER_ID, *range(protocol.num_users)]),
        b"%d" % protocol.dummy_count,
        figure(result.central_epsilon),
        figure(result.empirical_epsilon),
    ]


def bound_case(inputs) -> List[bytes]:
    """The spectral summary (gap, mixing time, collision) and the bound.

    A symmetric bound reads no eigensolve, so it is pinned bit for bit."""
    with _fresh_graph_cache():
        scenario = Scenario(**inputs)
        return [
            token(graph_summary(scenario), figures=True),
            token(bound(scenario), figures=scenario.analysis != "symmetric"),
        ]


def audit_case(inputs) -> List[bytes]:
    """The engine the auditor resolves, and the whole audit result."""
    graphs = [_build(spec) for spec in inputs["topology"]]
    topology = graphs[0] if len(graphs) == 1 else DynamicGraphSchedule(graphs)
    result = auditor.audit_network_shuffle(
        topology, inputs["epsilon0"], inputs["rounds"], trials=inputs["trials"],
        laziness=inputs["laziness"], rng=inputs["seed"],
    )
    return [token(auditor.resolve_method(topology, inputs["rounds"])), token(result)]


def secure_case(inputs) -> List[bytes]:
    """Decrypted payloads, ``delivered_by`` and every meter."""
    graph = _build(inputs["graph"])
    epsilon = inputs.get("randomizer")
    result = run_secure_protocol(
        graph, inputs["rounds"], inputs["values"],
        None if epsilon is None else BinaryRandomizedResponse(epsilon),
        rng=inputs["seed"],
    )
    return [
        token(result.decrypted_payloads),
        token(np.asarray(result.delivered_by)),
        *(_meter(result.meters.meter(entity))
          for entity in [SERVER_ID, *range(graph.num_nodes)]),
    ]


_ARTIFACTS: Dict[str, Callable[..., list]] = {
    "figure4": figure4.run_figure4,
    "figure5": figure5.run_figure5,
    "figure6": figure6.run_figure6,
    "figure7": figure7.run_figure7,
    "figure8": figure8.run_figure8,
    "figure9": figure9.run_figure9,
    "table1": table1.run_table1,
    "table3": table3.measure_complexity,
    "table4": table4.run_table4,
}

#: Derived values an artifact reports beside its dataclass fields.
_DERIVED: Dict[str, Callable[[Any], Any]] = {
    "figure4": lambda series: series.converged_step,
    "figure7": lambda comparison: comparison.crossover_eps0(),
}


def artifact_case(inputs) -> List[bytes]:
    """Every field of every row, plus derived columns, at 10 digits."""
    kwargs = dict(inputs["kwargs"])
    if "config" in kwargs:
        kwargs["config"] = ExperimentConfig(**kwargs["config"])
    rows = _ARTIFACTS[inputs["name"]](**kwargs)
    derived = _DERIVED.get(inputs["name"])
    return [
        token(row, figures=True) + (b"" if derived is None else token(derived(row), figures=True))
        for row in rows
    ]


HANDLERS: Dict[str, Callable[[Dict[str, Any]], List[bytes]]] = {
    "graph": graph_case,
    "run": run_case,
    "bound": bound_case,
    "audit": audit_case,
    "secure": secure_case,
    "artifact": artifact_case,
}


def compute(case) -> str:
    """The sha256 vector of one ``(handler, inputs)`` case."""
    handler, inputs = case
    return digest(HANDLERS[handler](inputs))
