"""Algorithm 1 — the ``A_all`` client protocol.

Each user randomizes her value, the network exchanges reports for ``t``
random-walk rounds, then every user delivers *all* reports she holds to
the server (a user holding none sends a null response, i.e. delivers
nothing).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ProtocolError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel, IndependentDropout
from repro.netsim.network import RoundBasedNetwork
from repro.protocols.reports import ProtocolResult, Report, payload_list
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative_int

#: Accepted ``engine=`` spellings.  Every one runs the array exchange:
#: the knob selects nothing and survives so stored scenarios (and their
#: hashes) stay valid.  The per-message reference simulator is
#: :class:`repro.testing.oracle.FaithfulNetwork`.
ENGINES = ("fast", "vectorized", "faithful", "compiled")


def resolve_backend(
    engine: str,
    faults: Optional[DropoutModel],
    laziness: float,
) -> tuple[str, Optional[DropoutModel]]:
    """Check an ``engine`` spelling; return the network backend + faults.

    The backend is always ``"vectorized"``.  ``laziness`` is sugar for
    ``IndependentDropout`` (the paper's lazy-walk fault model); passing
    both is ambiguous.
    """
    if engine not in ENGINES:
        raise ValidationError(
            f"unknown engine {engine!r}; use one of {ENGINES}"
        )
    if laziness:
        if faults is not None:
            raise ValidationError("pass either faults or laziness, not both")
        faults = IndependentDropout(laziness)
    return "vectorized", faults


def _randomize_inputs(
    randomizer: Optional[LocalRandomizer],
    values: Optional[Sequence[Any]],
    num_users: int,
    rng: np.random.Generator,
) -> List[Report]:
    """Line 2 of Algorithm 1: ``s_j <- A_ldp(x_j)`` for every user."""
    if values is None:
        # Privacy-only runs don't need payloads; carry the origin only.
        return [Report(origin=user, payload=None) for user in range(num_users)]
    if len(values) != num_users:
        raise ValidationError(
            f"need one value per user: got {len(values)} values, n={num_users}"
        )
    if randomizer is not None:
        # One stream-exact batch call: the same draws, in the same
        # order, as randomizing user by user.
        values = payload_list(randomizer.randomize_batch(values, rng))
    return [
        Report(origin=user, payload=value) for user, value in enumerate(values)
    ]


def run_all_protocol(
    graph: Union[Graph, DynamicGraphSchedule],
    rounds: int,
    *,
    values: Optional[Sequence[Any]] = None,
    randomizer: Optional[LocalRandomizer] = None,
    engine: str = "fast",
    faults: Optional[DropoutModel] = None,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> ProtocolResult:
    """Simulate Algorithm 1 on ``graph`` for ``rounds`` exchange rounds.

    Parameters
    ----------
    graph:
        The communication network; every user participates.  A
        :class:`~repro.graphs.dynamic.DynamicGraphSchedule` runs the
        exchange on a time-varying topology (churn, failover).
    rounds:
        Number of exchange rounds ``t``.
    values:
        Optional raw user values ``x_i``; omitted for privacy-only runs.
    randomizer:
        Optional ``A_ldp`` applied to each value before the exchange.
    engine:
        One of :data:`ENGINES`; every spelling runs the same exchange.
    faults:
        Dropout model (offline users keep their reports — the lazy-walk
        fault model of Section 4.5).
    laziness:
        Shorthand for ``faults=IndependentDropout(laziness)``.
    rng:
        Seed or generator.

    Returns
    -------
    ProtocolResult
        With the conservation invariant: exactly ``n`` reports reach the
        server.
    """
    check_non_negative_int(rounds, "rounds")
    generator = ensure_rng(rng)
    reports = _randomize_inputs(randomizer, values, graph.num_nodes, generator)
    backend, faults = resolve_backend(engine, faults, laziness)

    network = RoundBasedNetwork(
        graph, faults=faults, rng=generator, backend=backend
    )
    network.seed_items({report.origin: [report] for report in reports})
    network.run_exchange(rounds)
    allocation = network.held_counts()
    network.deliver_to_server()
    server_reports = list(network.server.reports)
    delivered_by = np.asarray(network.server.delivered_by, dtype=np.int64)
    if len(server_reports) != graph.num_nodes:
        raise ProtocolError(
            f"A_all lost reports: {len(server_reports)} of {graph.num_nodes} "
            "reached the server"
        )
    return ProtocolResult(
        protocol="all",
        num_users=graph.num_nodes,
        rounds=rounds,
        server_reports=server_reports,
        delivered_by=delivered_by,
        allocation=allocation,
        meters=network.meters,
    )
