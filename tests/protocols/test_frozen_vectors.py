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
here.  Both epsilons enter at 10 significant digits, because the
spectral gap behind the central one comes from LAPACK/ARPACK, whose
last bits differ between BLAS builds; everything else is hashed exact.
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
    "rr-single-0": "1e21b1b463621b6f70e42ecb6e55c8d0818951548d1a6ac37196e412b33b66de",
    "rr-single-0.3": "6edaa471617987c0333cb2d8d4f366c6f824c12faca360c76980cf961615e4d2",
    "privunit-all-0": "93ce397bea00a9499e3e116217bc25de3185ba68a80133722e8ac7ae48acf140",
    "privunit-all-0.3": "8b267e23a5256ff52b0502c2b15354453c787d27568b2dbd7188200dfa4d2e3f",
    "privunit-single-0": "6891e23e5bac379ffe25fe109b2101ee200f48afe835c1cb1841ef62255171e5",
    "privunit-single-0.3": "ccf5ec36e41c062a6196ffb85b43a0946c0cbe9e4f1836adc04950a9a216c3df",
    "novalues-all-0": "e017f0b6daaad71e2218ac745b241a10f8d3a283b4d52b1b8e2de8dad4d5099e",
    "novalues-all-0.3": "1d46fbe3ef900b58600ecdbabec833274edb5588bc1c8c09279f0902fd4b9af6",
    "novalues-single-0": "a6c9ec894c71d67d45faf103aecc62cddc8621db28e556cce6e9ea64cd40927a",
    "novalues-single-0.3": "deffc9409c0c2c8b83a1db934aaa6a1a7261e32e759da69fa941325c239031d6",
    "schedule-all-0": "e27c665b99fbcb149e5d667f7e2f03f38ece987758bddca315355c44399844ff",
    "schedule-single-0": "fd010ef82926094108859503fb2c4bca6e4853bc6f3148e01126aa52dbd7e8fb",
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_seeded_run_matches_frozen_vector(case):
    assert digest(run(_scenario(case))) == FROZEN[case]
