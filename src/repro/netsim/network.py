"""The synchronous round-based network.

One round = every online node forwards each held item to a uniformly
random neighbor; deliveries land in inboxes and become visible at the
start of the next round.  :class:`RoundBasedNetwork` carries arbitrary
payloads over the flat-array engine of :mod:`repro.netsim.engine`: all
tokens hop in a few array passes per round, meters aggregated per node.
With numba installed it runs the fused JIT kernels of
:mod:`repro.netsim.kernels`, otherwise NumPy — an install-time detail
that never changes a result.

The per-message reference simulator, which realizes the same exact RNG
contract one Python object per user, is
:class:`repro.testing.oracle.FaithfulNetwork`; the oracle tests in
``tests/netsim/test_engine.py`` compare the two bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.netsim.engine import VectorizedExchange
from repro.netsim.faults import DropoutModel
from repro.netsim.server import Server
from repro.utils.rng import RngLike


class RoundBasedNetwork:
    """Simulated network of ``graph.num_nodes`` users plus one server.

    Parameters
    ----------
    graph:
        The communication graph, or a
        :class:`~repro.graphs.dynamic.DynamicGraphSchedule` for a
        time-varying topology (the engine binds the scheduled graph for
        each round before any randomness is drawn).
    faults:
        Dropout model; offline holders keep their items for the round.
    rng:
        Seed or generator.
    backend:
        ``"vectorized"``, the only backend.  The per-message simulator
        is :class:`repro.testing.oracle.FaithfulNetwork`.
    """

    def __init__(
        self,
        graph: Union[Graph, DynamicGraphSchedule],
        *,
        faults: Optional[DropoutModel] = None,
        rng: RngLike = None,
        backend: str = "vectorized",
    ):
        if backend != "vectorized":
            raise ValidationError(
                f"unknown backend {backend!r}; the network runs 'vectorized' "
                "only (the per-message simulator is "
                "repro.testing.oracle.FaithfulNetwork)"
            )
        self._engine = VectorizedExchange(graph, faults=faults, rng=rng)
        self._payloads: List[Any] = []
        self.meters = self._engine.meters
        self.server = Server(self.meters.server_meter)

    @property
    def graph(self) -> Graph:
        """The topology currently in force (tracks the schedule)."""
        return self._engine.graph

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return self.graph.num_nodes

    @property
    def round_index(self) -> int:
        """Number of exchange rounds executed so far."""
        return self._engine.round_index

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed_items(self, items_per_node: Dict[int, List[Any]]) -> None:
        """Place initial items (randomized reports) into nodes.

        Seeding is only allowed before the campaign's first exchange
        round (repeated calls are fine) or after the final delivery —
        interleaving seeds with rounds would scramble the inbox-arrival
        order the exact RNG contract depends on.
        """
        drained = self._engine.drained
        origins: List[int] = []
        payloads: List[Any] = []
        for node_id, items in items_per_node.items():
            origins.extend([node_id] * len(items))
            payloads.extend(items)
        # Let the engine validate (and raise) before touching _payloads,
        # or a rejected seed would shift the token-id -> payload mapping
        # for every later campaign.
        self._engine.seed_tokens(np.asarray(origins, dtype=np.int64))
        if drained:
            # The engine restarts token ids from 0 after a final
            # delivery; drop the delivered campaign's payloads so the
            # mapping stays aligned.
            self._payloads = []
        self._payloads.extend(payloads)

    # ------------------------------------------------------------------
    # Exchange rounds
    # ------------------------------------------------------------------
    def set_graph(self, graph: Graph) -> None:
        """Swap the communication graph in place (same node count).

        Consumes no randomness.  On a schedule-constructed network the
        schedule owns the topology — it rebinds ``graph_at(round_index)``
        through this very method before each round, so a manual swap
        lasts only until the next round's sync.  Encode persistent
        interventions in the schedule's selector instead.
        """
        self._engine.set_graph(graph)

    def run_exchange_round(self) -> None:
        """One synchronous exchange round (lines 4-8 of Algorithms 1/2).

        Every online node sends each held item to a uniformly random
        neighbor; offline nodes keep their items (lazy-walk fault model).
        """
        self._engine.run_round()

    def run_exchange(self, rounds: int) -> None:
        """Run ``rounds`` exchange rounds.

        The engine takes the whole span so JIT kernels can fuse
        multi-round execution into single kernel calls; results are
        identical to looping :meth:`run_exchange_round`.
        """
        self._engine.run(rounds)

    # ------------------------------------------------------------------
    # Final delivery & queries
    # ------------------------------------------------------------------
    def deliver_to_server(self) -> None:
        """Final round: each user sends every held item to the server."""
        self.meters.messages_sent += self._engine.held_counts()
        order = self._engine.drain()
        senders = self._engine.token_position[order]
        payloads = [self._payloads[token] for token in order]
        self.server.deliver_many(senders.tolist(), payloads)

    def drain_held(self) -> List[List[Any]]:
        """Remove and return every node's held items, indexed by node,
        each node's items in inbox-arrival order."""
        order = self._engine.drain()
        positions = self._engine.token_position
        held_lists: List[List[Any]] = [[] for _ in range(self.num_users)]
        for token in order:
            held_lists[positions[token]].append(self._payloads[token])
        return held_lists

    def held_counts(self) -> np.ndarray:
        """Current items held per user — the allocation vector ``L``."""
        return self._engine.held_counts()
