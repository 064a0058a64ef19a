"""The synchronous round-based network.

One round = every online node forwards each held item to a uniformly
random neighbor; deliveries land in inboxes and become visible at the
start of the next round.  :class:`RoundBasedNetwork` runs the
flat-array engine of :mod:`repro.netsim.engine`: all tokens hop in a
few array passes per round, meters aggregated per node.

Its working interface is token-level:
:meth:`~RoundBasedNetwork.seed_tokens` (one token per origin entry),
:meth:`~RoundBasedNetwork.deliver_tokens` (``(token ids, senders)`` in
delivery order) and :meth:`~RoundBasedNetwork.drain_tokens` (token ids
in holder order), plus :meth:`~RoundBasedNetwork.send_one_each`, which
meters ``A_single``'s one-report-per-user final round.  The protocols
keep each token's payload in their own arrays, indexed by token id.
``seed_items``/``deliver_to_server``/``drain_held`` carry arbitrary
items as thin adapters over the first three methods.

The per-message reference simulator, which realizes the same exact RNG
contract one Python object per user, is
:class:`repro.testing.oracle.FaithfulNetwork`; the oracle tests in
``tests/netsim/test_engine.py`` compare the two bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

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
    def seed_tokens(self, origins: np.ndarray) -> None:
        """Place one token per entry of ``origins`` at that node.

        Token ids continue from the current count, and restart from 0
        after a final delivery; seeding ``arange(n)`` makes token id ==
        origin.  Seeding is only allowed before the campaign's first
        exchange round (repeated calls are fine) or after the final
        delivery — interleaving seeds with rounds would scramble the
        inbox-arrival order the exact RNG contract depends on.
        """
        drained = self._engine.drained
        self._engine.seed_tokens(origins)
        if drained:
            # The delivered campaign's payloads left with its tokens.
            self._payloads = []

    def seed_items(self, items_per_node: Dict[int, List[Any]]) -> None:
        """Place initial items (e.g. randomized reports) into nodes.

        An adapter over :meth:`seed_tokens`: each item becomes a token
        whose id indexes the item, in dict order and then list order.
        """
        origins: List[int] = []
        payloads: List[Any] = []
        for node_id, items in items_per_node.items():
            origins.extend([node_id] * len(items))
            payloads.extend(items)
        first = 0 if self._engine.drained else self._engine.num_tokens
        # The engine validates (and raises) before any payload is kept,
        # so a rejected seed cannot shift the token-id -> item mapping.
        self.seed_tokens(np.asarray(origins, dtype=np.int64))
        self._payloads += [None] * (first - len(self._payloads)) + payloads

    def _items(self, tokens: np.ndarray) -> List[Any]:
        """The items of ``tokens``; a token seeded bare carries ``None``."""
        payloads = self._payloads
        payloads += [None] * (self._engine.num_tokens - len(payloads))
        return [payloads[token] for token in tokens.tolist()]

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
        """Run ``rounds`` exchange rounds (:meth:`run_exchange_round`
        ``rounds`` times)."""
        self._engine.run(rounds)

    # ------------------------------------------------------------------
    # Final delivery & queries
    # ------------------------------------------------------------------
    def deliver_tokens(self) -> Tuple[np.ndarray, np.ndarray]:
        """Final round: each user sends every held token to the server.

        Meters the sends and the server's receipts; returns ``(token
        ids, senders)`` in delivery order — ascending sender, each
        sender's tokens in inbox-arrival order.
        """
        self.meters.messages_sent += self._engine.held_counts()
        tokens = self._engine.drain()
        senders = self._engine.token_position[tokens]
        self.server.receive(tokens.size)
        return tokens, senders

    def deliver_to_server(self) -> None:
        """:meth:`deliver_tokens`, with the server keeping the items."""
        tokens, senders = self.deliver_tokens()
        self.server.store(senders.tolist(), self._items(tokens))

    def drain_tokens(self) -> np.ndarray:
        """Remove every held token (no sends are metered).

        Returns the token ids grouped by ascending holder, each holder's
        tokens in inbox-arrival order; :meth:`held_counts` taken before
        the drain gives the group sizes.
        """
        return self._engine.drain()

    def send_one_each(self) -> None:
        """Meter a final round in which every user sends exactly one
        report to the server (``A_single``'s: a held pick or a dummy).

        Charges each user one send and the server ``num_users``
        receipts; the protocol keeps the reports themselves.
        """
        self.meters.messages_sent += 1
        self.server.receive(self.num_users)

    def drain_held(self) -> List[List[Any]]:
        """Remove and return every node's held items, indexed by node,
        each node's items in inbox-arrival order (an adapter over
        :meth:`drain_tokens`)."""
        counts = self.held_counts().tolist()
        items = self._items(self.drain_tokens())
        held: List[List[Any]] = []
        start = 0
        for count in counts:
            held.append(items[start:start + count])
            start += count
        return held

    def held_counts(self) -> np.ndarray:
        """Current items held per user — the allocation vector ``L``."""
        return self._engine.held_counts()
