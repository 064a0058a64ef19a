"""Algorithm 2 — the ``A_single`` client protocol.

Like ``A_all`` but after the final exchange round each user sends
exactly **one** report: a uniform sample from her held set, or a dummy
``A_ldp(0)`` if she holds none.  Sending a constant one report per user
hides the report-allocation vector from the adversary (stronger privacy
at large ``eps0``) at the cost of dropped real reports and injected
dummies (utility loss — the Figure 9 trade-off).

The exchange is :func:`~repro.protocols.all_protocol.run_walk`, the
prefix both protocols share.  The selection runs on token ids: the
drained order groups each holder's reports, so every pick is one index
into it, and the payloads are gathered from the randomized batch by the
picked ids.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel
from repro.protocols.all_protocol import Walk, run_walk
from repro.protocols.reports import ProtocolResult, object_array, take_payloads
from repro.utils.rng import RngLike

#: Origin marker for dummy reports.
DUMMY_ORIGIN = -1


def _draw_dummies(
    randomizer: Optional[LocalRandomizer],
    dummy_factory: Optional[Callable[[np.random.Generator, int], Any]],
    count: int,
    rng: np.random.Generator,
) -> Any:
    """Line 10 of Algorithm 2: ``count`` dummy payloads ``A_ldp(0)``,
    drawn in one call; ``dummy_factory(rng, count)`` replaces them."""
    if dummy_factory is not None:
        return dummy_factory(rng, count)
    if randomizer is not None:
        return randomizer.randomize_batch([0] * count, rng)
    return None


def _merge_deliveries(holds: np.ndarray, real: Any, dummies: Any) -> Any:
    """One payload array: user ``u``'s pick where ``holds[u]``, else the
    next dummy.  Typed when both sides are arrays of one dtype and row
    shape, else an object array of the per-report values (``None`` for
    the side a run lacks: values, or a mechanism to draw dummies)."""
    if real is None and dummies is None:
        return None
    if (
        isinstance(real, np.ndarray) and isinstance(dummies, np.ndarray)
        and real.dtype == dummies.dtype and real.shape[1:] == dummies.shape[1:]
    ):
        delivered = np.empty((holds.size, *real.shape[1:]), dtype=real.dtype)
        delivered[holds] = real
        delivered[~holds] = dummies
        return delivered
    delivered = np.full(holds.size, None, dtype=object)
    for mask, side in ((holds, real), (~holds, dummies)):
        if side is not None:
            delivered[mask] = object_array(side)
    return delivered


def deliver_single(
    walk: Walk,
    *,
    randomizer: Optional[LocalRandomizer] = None,
    dummy_factory: Optional[Callable[[np.random.Generator, int], Any]] = None,
) -> ProtocolResult:
    """Algorithm 2's final round: every user sends exactly one report.

    Runs on a fork, so ``walk`` stays as it was.  The selection consumes
    the generator as *one batched draw* over the non-empty holders (in
    user order), then the dummies' draws in user order.
    """
    network, generator = walk.fork()
    allocation = walk.allocation
    num_users = allocation.size
    # Grouped by ascending holder, each holder's tokens in inbox-arrival
    # order: user u's held reports are order[starts[u]:][:allocation[u]].
    order = network.drain_tokens()
    starts = np.cumsum(allocation) - allocation
    # The final round: every user sends exactly one report to the server.
    network.send_one_each()

    # Line 9 of Algorithm 2, batched: one vectorized draw selects the
    # uniform index for every non-empty holder at once; dummy draws
    # happen after the batch, in user order.
    holds = allocation > 0
    nonempty = np.flatnonzero(holds)
    picks = generator.integers(0, allocation[nonempty])
    chosen = order[starts[nonempty] + picks]
    dummy_count = num_users - nonempty.size

    origins = np.full(num_users, DUMMY_ORIGIN, dtype=np.int64)
    origins[nonempty] = chosen
    delivered = take_payloads(walk.reports, chosen)
    if dummy_count:
        dummies = _draw_dummies(randomizer, dummy_factory, dummy_count, generator)
        delivered = _merge_deliveries(holds, delivered, dummies)
    return ProtocolResult(
        protocol="single",
        num_users=num_users,
        rounds=walk.rounds,
        origins=origins,
        delivered_payloads=delivered,
        delivered_by=np.arange(num_users, dtype=np.int64),
        allocation=allocation,
        dummy_count=dummy_count,
        meters=network.meters,
    )


def run_single_protocol(
    graph: Union[Graph, DynamicGraphSchedule],
    rounds: int,
    *,
    values: Optional[Sequence[Any]] = None,
    randomizer: Optional[LocalRandomizer] = None,
    dummy_factory: Optional[Callable[[np.random.Generator, int], Any]] = None,
    engine: str = "fast",
    faults: Optional[DropoutModel] = None,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> ProtocolResult:
    """Simulate Algorithm 2 on ``graph`` for ``rounds`` exchange rounds.

    ``dummy_factory(rng, count)`` overrides the default dummy payloads
    ``A_ldp(0)``, drawing all ``count`` of them in one call — the
    Figure 9 experiment uses a normalized ``N(5, 1)^d`` draw per the
    paper.  The other parameters are
    :func:`~repro.protocols.all_protocol.run_all_protocol`'s.

    Returns
    -------
    ProtocolResult
        Exactly ``n`` reports reach the server, user ``u``'s at position
        ``u``; ``dummy_count`` of them are dummies (users who held
        nothing, origin ``-1``).
    """
    walk = run_walk(
        graph, rounds, values=values, randomizer=randomizer, engine=engine,
        faults=faults, laziness=laziness, rng=rng,
    )
    return deliver_single(walk, randomizer=randomizer, dummy_factory=dummy_factory)


def expected_empty_handed_stationary(pi: np.ndarray) -> float:
    """Dummy-count estimate at stationarity: every report is at node
    ``j`` with probability ``pi_j`` independently, so

        E[#empty] = sum_j (1 - pi_j)^n.
    """
    pi = np.asarray(pi, dtype=np.float64)
    n = pi.size
    return float(np.sum(np.exp(n * np.log1p(-np.clip(pi, 0.0, 1.0 - 1e-15)))))
