"""The synchronous round-based network.

One round = every online node forwards each held item to a uniformly
random neighbor; deliveries land in inboxes and become visible at the
start of the next round.  Two interchangeable backends realize this:

* ``backend="faithful"`` — per-message over Python ``Node`` objects with
  full per-entity metering.  Keeps message *identity* through the
  simulation, which adversary/audit scenarios need, but costs
  O(n · items) interpreter work per round.
* ``backend="vectorized"`` — the flat-array engine of
  :mod:`repro.netsim.engine`: all tokens hop in a few array passes per
  round, meters aggregated per node.  With numba installed it runs the
  fused JIT kernels of :mod:`repro.netsim.kernels`, otherwise NumPy —
  an install-time detail that never changes a result.

Both backends share an exact RNG contract — a seeded run produces
identical per-round held counts, meters, and server deliveries on
either — so the faithful path doubles as a cross-validation oracle for
the fast one (see ``tests/netsim/test_engine.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.netsim.engine import VectorizedExchange
from repro.netsim.faults import DropoutModel, NoFaults
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import MeterBoard, VectorMeterBoard
from repro.netsim.node import Node
from repro.netsim.server import Server
from repro.utils.rng import RngLike, ensure_rng

#: Valid values for ``RoundBasedNetwork(backend=...)``.
BACKENDS = ("faithful", "vectorized")


class RoundBasedNetwork:
    """Simulated network of ``graph.num_nodes`` users plus one server.

    Parameters
    ----------
    graph:
        The communication graph, or a
        :class:`~repro.graphs.dynamic.DynamicGraphSchedule` for a
        time-varying topology.  On a schedule, both backends bind the
        scheduled graph for each round before any randomness is drawn —
        the vectorized engine swaps its CSR caches, the faithful path
        rebinds every ``Node``'s neighbor list — so the exact RNG
        contract (and the equivalence oracle) extends to schedules.
    faults:
        Dropout model; offline holders keep their items for the round.
    rng:
        Seed or generator.
    backend:
        ``"faithful"`` (per-message ``Node`` objects, default for direct
        construction) or ``"vectorized"`` (flat-array engine — what the
        protocol simulators pick by default).
    """

    def __init__(
        self,
        graph: Union[Graph, DynamicGraphSchedule],
        *,
        faults: Optional[DropoutModel] = None,
        rng: RngLike = None,
        backend: str = "faithful",
    ):
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; use one of {BACKENDS}"
            )
        if isinstance(graph, DynamicGraphSchedule):
            self.schedule: Optional[DynamicGraphSchedule] = graph
            self._graph = graph.graph_at(0)
        else:
            self.schedule = None
            self._graph = graph
        self.backend = backend
        self.faults = faults if faults is not None else NoFaults()
        self.rng = ensure_rng(rng)
        self.nodes: Dict[int, Node] = {}
        self._engine: Optional[VectorizedExchange] = None
        self._payloads: List[Any] = []
        self._round_index = 0
        self._campaign_start_round = 0
        if backend == "faithful":
            self.meters: MeterBoard | VectorMeterBoard = MeterBoard()
            self.nodes = {
                node_id: Node(
                    node_id,
                    self._graph.neighbors(node_id),
                    self.meters.meter(node_id),
                )
                for node_id in range(self._graph.num_nodes)
            }
            self.server = Server(self.meters.meter(SERVER_ID))
        else:
            self._engine = VectorizedExchange(
                graph if self.schedule is None else self.schedule,
                faults=self.faults,
                rng=self.rng,
            )
            self.meters = self._engine.meters
            self.server = Server(self.meters.server_meter)

    @property
    def graph(self) -> Graph:
        """The topology currently in force (tracks the schedule)."""
        if self._engine is not None:
            return self._engine.graph
        return self._graph

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return self.graph.num_nodes

    @property
    def round_index(self) -> int:
        """Number of exchange rounds executed so far."""
        if self._engine is not None:
            return self._engine.round_index
        return self._round_index

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed_items(self, items_per_node: Dict[int, List[Any]]) -> None:
        """Place initial items (randomized reports) into nodes.

        Seeding is only allowed before the campaign's first exchange
        round (repeated calls are fine) or after the final delivery —
        interleaving seeds with rounds would scramble the inbox-arrival
        order the backends' exact RNG contract depends on.  Both
        backends enforce this identically.
        """
        if self._engine is not None:
            drained = self._engine.drained
            origins: List[int] = []
            payloads: List[Any] = []
            for node_id, items in items_per_node.items():
                origins.extend([node_id] * len(items))
                payloads.extend(items)
            # Let the engine validate (and raise) before touching
            # _payloads, or a rejected seed would shift the token-id ->
            # payload mapping for every later campaign.
            self._engine.seed_tokens(np.asarray(origins, dtype=np.int64))
            if drained:
                # The engine restarts token ids from 0 after a final
                # delivery; drop the delivered campaign's payloads so
                # the mapping stays aligned.
                self._payloads = []
            self._payloads.extend(payloads)
            return
        if any(node.held or node.inbox for node in self.nodes.values()):
            if self._round_index != self._campaign_start_round:
                raise SimulationError(
                    "cannot seed items mid-exchange; deliver to the server first"
                )
        else:
            self._campaign_start_round = self._round_index
        for node_id, items in items_per_node.items():
            node = self.nodes[node_id]
            node.held.extend(items)
            node.meter.record_store(len(items))

    # ------------------------------------------------------------------
    # Exchange rounds
    # ------------------------------------------------------------------
    def set_graph(self, graph: Graph) -> None:
        """Swap the communication graph in place (same node count).

        On the vectorized backend this delegates to the engine's CSR
        swap; on the faithful backend every ``Node``'s neighbor list is
        rebound.  Neither path consumes randomness, so seeded runs stay
        bit-identical across backends through a swap.

        On a schedule-constructed network the schedule owns the
        topology — it rebinds ``graph_at(round_index)`` through this
        very method before each round, so a manual swap lasts only
        until the next round's sync.  Encode persistent interventions
        in the schedule's selector instead.
        """
        if self._engine is not None:
            self._engine.set_graph(graph)
            return
        if graph.num_nodes != self._graph.num_nodes:
            raise ValidationError(
                f"replacement graph has {graph.num_nodes} nodes, "
                f"network has {self._graph.num_nodes}"
            )
        self._graph = graph
        for node_id, node in self.nodes.items():
            node.neighbors = graph.neighbors(node_id)

    def run_exchange_round(self) -> None:
        """One synchronous exchange round (lines 4-8 of Algorithms 1/2).

        Every online node sends each held item to a uniformly random
        neighbor; offline nodes keep their items (lazy-walk fault model).
        """
        if self._engine is not None:
            self._engine.run_round()
            return
        if self.schedule is not None:
            graph = self.schedule.graph_at(self._round_index)
            if graph is not self._graph:
                self.set_graph(graph)
        offline = self.faults.offline_mask(
            self.num_users, self._round_index, self.rng
        )
        sends: List[tuple[int, Any]] = []
        for node_id, node in self.nodes.items():
            node.online = not bool(offline[node_id])
            if not node.online:
                continue
            for item in node.take_all():
                recipient = node.sample_neighbor(self.rng)
                # An offline recipient still receives: the message waits
                # in her inbox (she is unavailable to *forward*, matching
                # the lazy-walk model).
                node.meter.record_send()
                sends.append((recipient, item))
        for recipient, item in sends:
            self.nodes[recipient].receive(item)
        for node in self.nodes.values():
            node.collect_inbox()
        self._round_index += 1

    def run_exchange(self, rounds: int) -> None:
        """Run ``rounds`` exchange rounds.

        Engine-backed networks delegate the whole span to the engine so
        JIT kernels can fuse multi-round execution into single kernel
        calls; results are identical to looping
        :meth:`run_exchange_round`.
        """
        if rounds < 0:
            raise SimulationError(f"rounds must be non-negative, got {rounds}")
        if self._engine is not None:
            self._engine.run(rounds)
            return
        for _ in range(rounds):
            self.run_exchange_round()

    # ------------------------------------------------------------------
    # Final delivery & queries
    # ------------------------------------------------------------------
    def deliver_to_server(self) -> None:
        """Final round: each user sends every held item to the server."""
        if self._engine is not None:
            self.meters.messages_sent += self._engine.held_counts()
            order = self._engine.drain()
            senders = self._engine.token_position[order]
            payloads = [self._payloads[token] for token in order]
            self.server.deliver_many(senders.tolist(), payloads)
            return
        for node_id in range(self.num_users):
            node = self.nodes[node_id]
            for item in node.take_all():
                node.meter.record_send()
                self.server.deliver(node_id, item)

    def drain_held(self) -> List[List[Any]]:
        """Remove and return every node's held items, indexed by node.

        Item order within a node matches the per-message inboxes on both
        backends, so seeded runs drain identically.
        """
        if self._engine is not None:
            order = self._engine.drain()
            positions = self._engine.token_position
            held_lists: List[List[Any]] = [[] for _ in range(self.num_users)]
            for token in order:
                held_lists[positions[token]].append(self._payloads[token])
            return held_lists
        return [self.nodes[user].take_all() for user in range(self.num_users)]

    def held_counts(self) -> np.ndarray:
        """Current items held per user — the allocation vector ``L``."""
        if self._engine is not None:
            return self._engine.held_counts()
        counts = np.zeros(self.num_users, dtype=np.int64)
        for node_id, node in self.nodes.items():
            counts[node_id] = len(node.held)
        return counts
