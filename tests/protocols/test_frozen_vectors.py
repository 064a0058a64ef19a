"""Frozen protocol vectors: seeded ``repro.run`` outputs, hashed.

Each vector is a sha256 over everything a protocol run hands back —
delivered origins (and their Python types), payload bytes and Python
types, ``delivered_by``, the allocation, every per-user meter and the
server meter, ``dummy_count``, the central epsilon and the Theorem 6.1
epsilon — for ``rr``, ``privunit`` (with ``privunit_normal`` dummies)
and no-values runs, under ``A_all`` and ``A_single``, crisp and lazy,
plus a two-graph epoch schedule.

The digests were captured before reports started travelling through
the protocols as ``(origin, payload)`` arrays and must not move: any
change to a seeded stream, a delivery order or a payload type shows up
here.  The ``*-single-*`` digests were re-captured once, when
``A_single``'s final round started to be metered (one send per user,
``n`` receipts at the server); nothing else in those runs moved.
Both epsilons enter at 10 significant digits, because the spectral gap
behind the central one comes from LAPACK/ARPACK, whose last bits differ
between BLAS builds; everything else is hashed exact.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

import numpy as np
import pytest

from repro.netsim.message import SERVER_ID
from repro.scenario import Scenario, clear_graph_cache, run

_GRAPH = {"kind": "barabasi_albert", "params": {"num_nodes": 96, "attachment": 3}}
_RR = dict(
    mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
    values={"kind": "bernoulli", "params": {"rate": 0.3}},
)
_PRIVUNIT = dict(
    mechanism={"kind": "privunit", "params": {"epsilon": 2.0, "dimension": 8}},
    values={"kind": "bimodal_unit_vectors", "params": {"dimension": 8}},
    dummies={"kind": "privunit_normal", "params": {}},
)
_NO_VALUES = dict(epsilon0=1.0)
_SCHEDULE = {
    "kind": "schedule",
    "params": {
        "graphs": [
            {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
            {"kind": "k_regular", "params": {"degree": 6, "num_nodes": 64}},
        ],
        "selector": "epoch",
        "block": 2,
    },
}


def _scenario(case: str) -> Scenario:
    kind, protocol, laziness = case.split("-")
    if kind == "schedule":
        payload: Dict[str, Any] = dict(graph=_SCHEDULE, **_RR)
    else:
        payload = dict(
            graph=_GRAPH,
            **{"rr": _RR, "privunit": _PRIVUNIT, "novalues": _NO_VALUES}[kind],
        )
    if protocol == "all":
        payload.pop("dummies", None)
    return Scenario(
        protocol=protocol, rounds=7, seed=20240, laziness=float(laziness),
        **payload,
    )


def _token(value: Any) -> bytes:
    """Canonical bytes of one value, type included."""
    if isinstance(value, np.ndarray):
        return b"ndarray:%s:%r:" % (value.dtype.str.encode(), value.shape) + (
            np.ascontiguousarray(value).tobytes()
        )
    if isinstance(value, float):
        return b"float:" + value.hex().encode()
    if isinstance(value, np.generic):
        return type(value).__name__.encode() + b":" + _token(value.item())
    return type(value).__name__.encode() + b":" + repr(value).encode()


def _epsilon(value: Any) -> bytes:
    return b"None" if value is None else b"%.10g" % value


def digest(result) -> str:
    """The sha256 vector of one seeded ``repro.run`` result."""
    protocol = result.protocol_result
    sha = hashlib.sha256()

    def feed(*parts: bytes) -> None:
        for part in parts:
            sha.update(part)
            sha.update(b"|")

    for report in protocol.server_reports:
        feed(_token(report.origin))
    for payload in protocol.payloads():
        feed(_token(payload))
    for name in ("delivered_by", "allocation"):
        array = np.asarray(getattr(protocol, name))
        feed(_token(array))
    for entity in [SERVER_ID, *range(protocol.num_users)]:
        meter = protocol.meters.meter(entity)
        feed(b"%d,%d,%d,%d" % (
            meter.messages_sent, meter.messages_received,
            meter.current_items, meter.peak_items,
        ))
    feed(b"%d" % protocol.dummy_count)
    feed(_epsilon(result.central_epsilon), _epsilon(result.empirical_epsilon))
    return sha.hexdigest()


FROZEN: Dict[str, str] = {
    "rr-all-0": "ca7167a0ab565365eff97c4d91e3089eada5540ac68cee537d780fd35110cb17",
    "rr-all-0.3": "a7043b5c85ce834e55602d74903e0aacfe05ecc7290d1e39216eef6d1f51306c",
    "rr-single-0": "280bc7bebaa0d64df4f9730d3888941ab879ed094011a5a1fbb5ff150007b05b",
    "rr-single-0.3": "c1d92b1937a310f1e880476d135fbc311772cd73b37d28137d3da2c5bbf20c0e",
    "privunit-all-0": "93ce397bea00a9499e3e116217bc25de3185ba68a80133722e8ac7ae48acf140",
    "privunit-all-0.3": "8b267e23a5256ff52b0502c2b15354453c787d27568b2dbd7188200dfa4d2e3f",
    "privunit-single-0": "7d7c795d10153113169bc439ede03af6518b35d1c6ad1f4f73cd657b6c26eaf6",
    "privunit-single-0.3": "a80d8253a906cc8d2450122df8c11599aa8e92f70833f06d7117fbad00d3c0a4",
    "novalues-all-0": "e017f0b6daaad71e2218ac745b241a10f8d3a283b4d52b1b8e2de8dad4d5099e",
    "novalues-all-0.3": "1d46fbe3ef900b58600ecdbabec833274edb5588bc1c8c09279f0902fd4b9af6",
    "novalues-single-0": "c7dedb38b8cad3e6841371ee3f33c97bc17274d87916ab75f261a2e00c0d7ee9",
    "novalues-single-0.3": "0a0dac3046c4ff9c89accc9672973dee8acb443ea798d1a331ade68c7cf57a04",
    "schedule-all-0": "e27c665b99fbcb149e5d667f7e2f03f38ece987758bddca315355c44399844ff",
    "schedule-single-0": "194b7d5072af9a8b417c018e10b78eefd3e46b1c02fe15308eddc1f42277ab3b",
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_seeded_run_matches_frozen_vector(case):
    assert digest(run(_scenario(case))) == FROZEN[case]
