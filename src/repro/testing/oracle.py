"""The per-message exchange simulator: the reference the array engine
is compared against.

:class:`FaithfulNetwork` runs Algorithms 1/2's exchange the way the
paper states it — one Python :class:`Node` per user, one random number
per message per round — with the public methods of
:class:`repro.netsim.network.RoundBasedNetwork`.  It consumes the
engine's exact RNG contract (see :mod:`repro.netsim.engine`), so a
seeded run here and on the array engine agree bit for bit in held
counts, meters, server deliveries and drain order; the oracle tests in
``tests/netsim/test_engine.py`` hold the engine to that.  It costs
O(n · items) interpreter work per round and is not a runtime path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.netsim.faults import DropoutModel, NoFaults
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import EntityMeter, MeterBoard
from repro.netsim.server import Server
from repro.utils.rng import RngLike, ensure_rng


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
        graph: Union[Graph, DynamicGraphSchedule],
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

    def deliver_to_server(self) -> None:
        """Final round: each user sends every held item to the server."""
        for node_id in range(self.num_users):
            node = self.nodes[node_id]
            for item in node.take_all():
                node.meter.record_send()
                self.server.deliver(node_id, item)

    def drain_held(self) -> List[List[Any]]:
        """Remove and return every node's held items, indexed by node."""
        return [self.nodes[user].take_all() for user in range(self.num_users)]

    def held_counts(self) -> np.ndarray:
        """Current items held per user — the allocation vector ``L``."""
        return np.array(
            [len(self.nodes[user].held) for user in range(self.num_users)],
            dtype=np.int64,
        )
