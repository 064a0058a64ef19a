"""Algorithm 1 — the ``A_all`` client protocol.

Each user randomizes her value, the network exchanges reports for ``t``
random-walk rounds, then every user delivers *all* reports she holds to
the server (a user holding none sends a null response, i.e. delivers
nothing).

The reports travel as arrays: user ``j``'s report is token ``j`` on the
network, the server's delivery is the drained token order, and the
payloads are gathered from the randomized batch by token id.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ProtocolError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel, IndependentDropout
from repro.netsim.network import RoundBasedNetwork
from repro.protocols.reports import ProtocolResult, object_array, take_payloads
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
) -> Optional[np.ndarray]:
    """Line 2 of Algorithm 1: ``s_j <- A_ldp(x_j)`` for every user.

    Returns the reports indexed by user (= token id) as one array: the
    ``randomize_batch`` result, or the raw values when there is no
    randomizer; ``None`` for a privacy-only run.  This is where a
    non-array batch (a caller's list, the base-class loop's result)
    becomes an object array holding each item as it is.
    """
    if values is None:
        return None
    if len(values) != num_users:
        raise ValidationError(
            f"need one value per user: got {len(values)} values, n={num_users}"
        )
    # One stream-exact batch call: the same draws, in the same order,
    # as randomizing user by user.
    batch = values if randomizer is None else randomizer.randomize_batch(values, rng)
    return batch if isinstance(batch, np.ndarray) else object_array(batch)


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
    num_users = graph.num_nodes
    reports = _randomize_inputs(randomizer, values, num_users, generator)
    backend, faults = resolve_backend(engine, faults, laziness)

    network = RoundBasedNetwork(
        graph, faults=faults, rng=generator, backend=backend
    )
    # User j seeds token j, so a token id is its report's origin.
    network.seed_tokens(np.arange(num_users, dtype=np.int64))
    network.run_exchange(rounds)
    allocation = network.held_counts()
    tokens, delivered_by = network.deliver_tokens()
    if tokens.size != num_users:
        raise ProtocolError(
            f"A_all lost reports: {tokens.size} of {num_users} "
            "reached the server"
        )
    return ProtocolResult(
        protocol="all",
        num_users=num_users,
        rounds=rounds,
        origins=tokens,
        delivered_payloads=take_payloads(reports, tokens),
        delivered_by=delivered_by,
        allocation=allocation,
        meters=network.meters,
    )
