"""Reference implementations the runtime paths are tested against.

Each computes what a library path computes the direct way, one
message, trial or query at a time.  None is a runtime path, and
nothing in the library imports this module.

:class:`FaithfulNetwork` runs Algorithms 1/2's exchange with one Python
:class:`Node` per user and one random number per message per round,
behind the public methods of
:class:`repro.netsim.network.RoundBasedNetwork`.  It consumes the
engine's exact RNG contract (see :mod:`repro.netsim.engine`), so a
seeded run here and on the array engine agree bit for bit in held
counts, meters, server deliveries and drain order; the oracle tests in
``tests/netsim/test_engine.py`` hold the engine to that.

:func:`looped_audit` (the per-trial auditor),
:func:`reverse_posterior_argmax` (the one-query collusion posterior)
and :func:`evolve_profile_on_schedule` /
:func:`collision_profile_on_schedule` (the dense schedule profile) are
listed in :mod:`repro.testing` with the fast path each one checks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.auditing.auditor import (
    AuditResult,
    AuditStatistic,
    epsilon_lower_bound,
    weighted_evidence_statistic,
)
from repro.config import DEFAULT_CONFIG
from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule, GraphLike, panel_collisions
from repro.graphs.graph import Graph
from repro.graphs.spectral import (
    lazy_transition_matrix,
    stationary_distribution,
    transition_matrix,
)
from repro.graphs.walks import simulate_token_walks
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.netsim.faults import DropoutModel, NoFaults
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import EntityMeter, MeterBoard
from repro.netsim.server import Server
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


class Node:
    """A user/client: an id, a neighbor list, an inbox, and held items."""

    def __init__(self, node_id: int, neighbors: np.ndarray, meter: EntityMeter):
        self.node_id = int(node_id)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.meter = meter
        self.inbox: List[Any] = []
        self.held: List[Any] = []
        self.online = True

    def receive(self, payload: Any) -> None:
        """Accept a payload into the inbox (delivered next round)."""
        self.inbox.append(payload)
        self.meter.record_receive()
        self.meter.record_store()

    def collect_inbox(self) -> None:
        """Move inbox contents into held items (start-of-round step)."""
        self.held.extend(self.inbox)
        self.inbox.clear()

    def take_all(self) -> List[Any]:
        """Remove and return all held items."""
        items, self.held = self.held, []
        self.meter.record_release(len(items))
        return items

    def sample_neighbor(self, rng: np.random.Generator) -> int:
        """A uniformly random neighbor, drawn as ``floor(u * degree)``
        from one uniform double (the engine's RNG contract)."""
        if self.neighbors.size == 0:
            # Same exception type as the engine's isolated-holder guard.
            raise SimulationError(f"node {self.node_id} has no neighbors")
        # The same boundary clamp as the engine: a contract-violating
        # u == 1.0 would otherwise index one past the slice.
        offset = min(int(rng.random() * self.neighbors.size), self.neighbors.size - 1)
        return int(self.neighbors[offset])

    def __repr__(self) -> str:
        return (
            f"Node(id={self.node_id}, degree={self.neighbors.size}, "
            f"held={len(self.held)}, online={self.online})"
        )


class FaithfulNetwork:
    """Per-message twin of :class:`~repro.netsim.network.RoundBasedNetwork`.

    Takes the same ``graph`` (or schedule), ``faults`` and ``rng``; on
    a schedule every ``Node``'s neighbor list is rebound to
    ``graph_at(round_index)`` before the round draws anything.
    """

    def __init__(
        self,
        graph: GraphLike,
        *,
        faults: Optional[DropoutModel] = None,
        rng: RngLike = None,
    ):
        if isinstance(graph, DynamicGraphSchedule):
            self.schedule: Optional[DynamicGraphSchedule] = graph
            graph = graph.graph_at(0)
        else:
            self.schedule = None
        self.graph = graph
        self.faults = faults if faults is not None else NoFaults()
        self.rng = ensure_rng(rng)
        self.round_index = 0
        self._campaign_start_round = 0
        self._num_tokens = 0
        self.meters = MeterBoard()
        self.nodes: Dict[int, Node] = {
            node_id: Node(node_id, graph.neighbors(node_id), self.meters.meter(node_id))
            for node_id in range(graph.num_nodes)
        }
        self.server = Server(self.meters.meter(SERVER_ID))

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return self.graph.num_nodes

    def seed_tokens(self, origins: np.ndarray) -> None:
        """Seed one token per entry of ``origins``, carrying token ids
        as items: ids continue from the current count, and restart from
        0 once the network is empty (after the final delivery)."""
        if not any(node.held or node.inbox for node in self.nodes.values()):
            self._num_tokens = 0
        items: Dict[int, List[int]] = {}
        for token, origin in enumerate(
            np.asarray(origins, dtype=np.int64).tolist(), start=self._num_tokens
        ):
            items.setdefault(origin, []).append(token)
        self.seed_items(items)
        self._num_tokens += len(origins)

    def seed_items(self, items_per_node: Dict[int, List[Any]]) -> None:
        """Place items into nodes: before a campaign's first round
        (repeated calls are fine) or after the final delivery."""
        if any(node.held or node.inbox for node in self.nodes.values()):
            if self.round_index != self._campaign_start_round:
                raise SimulationError(
                    "cannot seed items mid-exchange; deliver to the server first"
                )
        else:
            self._campaign_start_round = self.round_index
        for node_id, items in items_per_node.items():
            node = self.nodes[node_id]
            node.held.extend(items)
            node.meter.record_store(len(items))

    def set_graph(self, graph: Graph) -> None:
        """Rebind every ``Node``'s neighbor list (same node count)."""
        if graph.num_nodes != self.graph.num_nodes:
            raise ValidationError(
                f"replacement graph has {graph.num_nodes} nodes, "
                f"network has {self.graph.num_nodes}"
            )
        self.graph = graph
        for node_id, node in self.nodes.items():
            node.neighbors = graph.neighbors(node_id)

    def run_exchange_round(self) -> None:
        """Every online node sends each held item to a uniformly random
        neighbor; offline nodes keep theirs (the lazy-walk model)."""
        if self.schedule is not None:
            graph = self.schedule.graph_at(self.round_index)
            if graph is not self.graph:
                self.set_graph(graph)
        offline = self.faults.offline_mask(self.num_users, self.round_index, self.rng)
        sends: List[tuple[int, Any]] = []
        for node_id, node in self.nodes.items():
            node.online = not bool(offline[node_id])
            if not node.online:
                continue
            for item in node.take_all():
                # An offline recipient still receives: the item waits
                # in her inbox until she is online to forward it.
                recipient = node.sample_neighbor(self.rng)
                node.meter.record_send()
                sends.append((recipient, item))
        for recipient, item in sends:
            self.nodes[recipient].receive(item)
        for node in self.nodes.values():
            node.collect_inbox()
        self.round_index += 1

    def run_exchange(self, rounds: int) -> None:
        """Run ``rounds`` exchange rounds."""
        if rounds < 0:
            raise SimulationError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_exchange_round()

    def _send_held(self) -> tuple[List[Any], List[int]]:
        """Final round: every node sends each held item to the server,
        in ascending node order; returns ``(items, senders)``."""
        items: List[Any] = []
        senders: List[int] = []
        for node_id in range(self.num_users):
            node = self.nodes[node_id]
            for item in node.take_all():
                node.meter.record_send()
                items.append(item)
                senders.append(node_id)
        self.server.receive(len(items))
        return items, senders

    def deliver_to_server(self) -> None:
        """Final round: each user sends every held item to the server."""
        items, senders = self._send_held()
        self.server.store(senders, items)

    def deliver_tokens(self) -> tuple[np.ndarray, np.ndarray]:
        """The final round for token ids: ``(token ids, senders)`` in
        delivery order, metered as :meth:`deliver_to_server` but not
        kept by the server."""
        tokens, senders = self._send_held()
        return (
            np.asarray(tokens, dtype=np.int64),
            np.asarray(senders, dtype=np.int64),
        )

    def send_one_each(self) -> None:
        """Meter a final round of one report per user to the server."""
        for node_id in range(self.num_users):
            self.nodes[node_id].meter.record_send()
        self.server.receive(self.num_users)

    def drain_held(self) -> List[List[Any]]:
        """Remove and return every node's held items, indexed by node."""
        return [self.nodes[user].take_all() for user in range(self.num_users)]

    def drain_tokens(self) -> np.ndarray:
        """Remove every held token id, grouped by ascending holder."""
        return np.asarray(
            [token for held in self.drain_held() for token in held],
            dtype=np.int64,
        )

    def held_counts(self) -> np.ndarray:
        """Current items held per user — the allocation vector ``L``."""
        return np.array(
            [len(self.nodes[user].held) for user in range(self.num_users)],
            dtype=np.int64,
        )


def _looped_world_statistics(
    graph: GraphLike,
    randomizer: BinaryRandomizedResponse,
    rounds: int,
    trials: int,
    victim: int,
    victim_bit: int,
    statistic: AuditStatistic,
    laziness: float,
    generator: np.random.Generator,
) -> np.ndarray:
    """Reference per-trial loop (the pre-batching engine).

    Kept for the statistical-equivalence oracle and the speedup
    benchmark; same estimator and draw structure as the batched path,
    executed one trial at a time.
    """
    n = graph.num_nodes
    starts = np.arange(n, dtype=np.int64)
    out = np.empty(trials, dtype=np.float64)
    for index in range(trials):
        bits = generator.integers(0, 2, size=n)
        bits[victim] = victim_bit
        payloads = randomizer.randomize_batch(bits, generator)
        holders = simulate_token_walks(
            graph, starts, rounds, laziness=laziness, rng=generator
        )
        out[index] = statistic(payloads[np.newaxis, :], holders[np.newaxis, :])[0]
    return out


def looped_audit(
    graph: GraphLike,
    epsilon0: float,
    rounds: int,
    *,
    trials: int = 2000,
    laziness: float = 0.0,
    victim: int = 0,
    confidence: float = 0.95,
    delta: float = DEFAULT_CONFIG.delta,
    rng: RngLike = None,
) -> AuditResult:
    """:func:`~repro.auditing.auditor.audit_network_shuffle`, one trial
    at a time.

    The same game with the default attacker statistic: each world
    draws from its own SeedSequence child (``D`` then ``D'``), and the
    threshold sweep is the auditor's :func:`epsilon_lower_bound`.
    """
    generator = ensure_rng(rng)
    rng_d, rng_d_prime = spawn_rngs(generator, 2)
    randomizer = BinaryRandomizedResponse(epsilon0)
    statistic = weighted_evidence_statistic(
        graph, rounds, laziness=laziness, victim=victim
    )
    stats_d, stats_d_prime = (
        _looped_world_statistics(
            graph, randomizer, rounds, trials, victim, victim_bit,
            statistic, laziness, world_rng,
        )
        for victim_bit, world_rng in ((0, rng_d), (1, rng_d_prime))
    )
    eps, threshold = epsilon_lower_bound(
        stats_d, stats_d_prime, delta, confidence=confidence
    )
    return AuditResult(
        epsilon_lower_bound=eps,
        delta=delta,
        trials=trials,
        best_threshold=threshold,
        mechanism=f"network-shuffle:A_all:t={rounds}",
    )


def reverse_posterior_argmax(
    graph: Graph, anchor: int, free_rounds: int
) -> int:
    """MAP origin for a walk anchored at ``anchor`` after ``free_rounds``.

    By reversibility of the degree-biased walk, ``P(origin = i | at
    anchor after r rounds)`` is proportional to ``pi_i M^r[i, anchor]``
    under a uniform origin prior; we evolve the reverse walk from the
    anchor and reweight by degrees.
    """
    if free_rounds == 0:
        return anchor
    matrix_t = transition_matrix(graph).T.tocsr()
    distribution = np.zeros(graph.num_nodes)
    distribution[anchor] = 1.0
    # Reverse chain: P(X_0 = i | X_r = a) ∝ pi_i P_i->a^{(r)}; for the
    # degree-biased chain the time reversal equals the forward chain, so
    # evolving from the anchor gives the posterior up to the pi reweight.
    for _ in range(free_rounds):
        distribution = matrix_t @ distribution
    pi = stationary_distribution(graph)
    posterior = distribution * pi
    return int(np.argmax(posterior))


def evolve_profile_on_schedule(
    schedule: DynamicGraphSchedule,
    distributions: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
) -> np.ndarray:
    """Evolve a column-stacked batch of distributions across the schedule.

    ``distributions`` has shape ``(n, k)`` — column ``j`` is one
    probability vector; every column advances through the same per-round
    transition matrices (one sparse-dense product per round, the matrix
    rebuilt each round).  Start from the identity and column ``i`` is
    ``P^i(t)``.
    """
    current = np.asarray(distributions, dtype=np.float64)
    if current.ndim != 2 or current.shape[0] != schedule.num_nodes:
        raise ValidationError(
            f"distributions must have shape ({schedule.num_nodes}, k), "
            f"got {current.shape}"
        )
    for round_index in range(steps):
        graph = schedule.graph_at(round_index)
        current = lazy_transition_matrix(graph, laziness).T.tocsr() @ current
    return current


def collision_profile_on_schedule(
    schedule: DynamicGraphSchedule,
    steps: int,
    *,
    laziness: float = 0.0,
) -> np.ndarray:
    """Exact per-user collision mass ``sum_j P^i_j(t)^2``, shape ``(n,)``.

    Column ``i`` of the evolved identity is user ``i``'s exact position
    distribution after ``steps`` scheduled rounds; its squared L2 norm
    is the collision mass the Theorem 5.3/5.5 bounds consume.
    """
    profile = evolve_profile_on_schedule(
        schedule, np.eye(schedule.num_nodes), steps, laziness=laziness
    )
    return panel_collisions(profile)
