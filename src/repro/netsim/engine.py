"""Vectorized exchange engine: every in-flight report as one array slot.

The per-message reference simulator
(:class:`repro.testing.oracle.FaithfulNetwork`) walks Python ``Node``
objects and draws one random number per message per round — O(n · items)
interpreter overhead that caps it at ~10^4 users.  This engine
represents the same process as two flat arrays,

* ``token_origin[i]``  — the user who created token ``i``;
* ``token_position[i]`` — the user currently holding token ``i``;

and advances a round with a handful of NumPy kernels: one dropout mask,
one uniform draw per moving token turned into a neighbor via the CSR
``indptr``/``indices`` offsets of :class:`repro.graphs.graph.Graph`,
``np.bincount`` for receipts, and one packed-key sort
(:func:`repro.utils.mathutils.stable_argsort`) for the next round's
iteration order.

RNG contract (exact, not statistical)
-------------------------------------
The engine and the reference simulator consume the *same* random stream
in the *same* order, so a seeded engine run reproduces the per-message
run bit for bit:

1. each round first draws the fault model's offline mask;
2. then one uniform double per message held by an online node, in the
   per-message iteration order — ascending holder id, and within a holder
   the inbox arrival order; the neighbor index is
   ``floor(u * degree)``.

NumPy's ``Generator.random(k)`` produces the identical stream to ``k``
scalar ``Generator.random()`` calls, so the reference's per-item
scalar draw and this engine's single array draw coincide.  The engine
maintains the iteration order explicitly in :attr:`_order` — kept items
precede arrivals, arrivals land in send order — which is exactly the
order the per-message simulator's inboxes realize.

One round implementation
------------------------
:meth:`VectorizedExchange.run_round` is one chain of NumPy passes, and
:meth:`VectorizedExchange.run` loops it.  The next round's order comes
from one unstable sort of ``(holder << shift) | index`` keys
(:func:`repro.utils.mathutils.stable_argsort`), which realizes the
stable argsort's permutation exactly.  :func:`backend_info` names that
round for ``/stats`` and run provenance.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.netsim.faults import DropoutModel, NoFaults
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import VectorMeterBoard
from repro.utils.mathutils import stable_argsort
from repro.utils.rng import RngLike, ensure_rng

#: Ceiling on memoized degree vectors for schedule-driven engines.  A
#: round-robin schedule cycles a handful of graphs (all hit); a churn
#: schedule that generates a fresh topology per phase would otherwise
#: pin one O(n) degree vector — and the graph it belongs to — per phase,
#: growing without limit over a 10^5-phase run.  Beyond the cap the
#: least-recently-used entry is evicted (a miss just recomputes
#: ``graph.degrees()``, an O(n) ``np.diff``).
_DEGREE_CACHE_LIMIT = 64


def backend_info() -> Dict[str, str]:
    """Which round the array engine runs, for ``/stats`` and run
    provenance: always its one NumPy round."""
    return {"compiled_kernels": "numpy"}


class VectorizedExchange:
    """Array-driven realization of the synchronous exchange rounds.

    Parameters
    ----------
    graph:
        Communication graph; tokens hop along its edges.  Passing a
        :class:`~repro.graphs.dynamic.DynamicGraphSchedule` makes the
        topology time-varying: before each round the engine swaps in the
        schedule's graph for that round index (a pure cache rebind —
        ``_degrees``/``_indptr``/``_indices`` — consuming no randomness,
        so the exact RNG contract is untouched).
    faults:
        Dropout model — offline holders keep their tokens for the round
        (the paper's lazy-walk fault model, Section 4.5).
    rng:
        Seed or generator.
    record_trajectories:
        When True, keep every token's full path (``trajectories()``) —
        needed by the collusion attack, costs O(tokens) memory per round.
    """

    def __init__(
        self,
        graph: Union[Graph, DynamicGraphSchedule],
        *,
        faults: Optional[DropoutModel] = None,
        rng: RngLike = None,
        record_trajectories: bool = False,
    ):
        if isinstance(graph, DynamicGraphSchedule):
            self.schedule: Optional[DynamicGraphSchedule] = graph
            self._degree_cache_limit = max(
                1, min(graph.num_graphs, _DEGREE_CACHE_LIMIT)
            )
            graph = graph.graph_at(0)
        else:
            self.schedule = None
            self._degree_cache_limit = 1
        # Schedule swaps cycle a handful of graph objects; memoize their
        # degree vectors so each swap is a pure rebind, not an O(n)
        # np.diff per round.  (graph, degrees) pairs: holding the graph
        # pins its id, so a recycled id can never alias a stale entry.
        # Bounded LRU: capped by the schedule's distinct-graph count and
        # ``_DEGREE_CACHE_LIMIT``, so lazily generated phase graphs
        # can't grow the cache (or pin graphs) without limit.
        self._degree_cache: OrderedDict[int, Tuple[Graph, np.ndarray]] = (
            OrderedDict()
        )
        self.graph = graph
        self.faults = faults if faults is not None else NoFaults()
        self.rng = ensure_rng(rng)
        self.round_index = 0
        self._degrees = graph.degrees()
        self._indptr = graph.indptr
        self._indices = graph.indices
        self.token_origin = np.empty(0, dtype=np.int64)
        self.token_position = np.empty(0, dtype=np.int64)
        #: Tokens in iteration order: ascending holder, then
        #: inbox arrival order within a holder (see module docstring).
        self._order = np.empty(0, dtype=np.int64)
        self.meters = VectorMeterBoard(graph.num_nodes, SERVER_ID)
        self._drained = False
        self._campaign_start_round = 0
        self._paths: Optional[List[np.ndarray]] = [] if record_trajectories else None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return self.graph.num_nodes

    @property
    def num_tokens(self) -> int:
        """Number of in-flight tokens."""
        return self.token_position.size

    @property
    def drained(self) -> bool:
        """Whether a final delivery (:meth:`drain`) has emptied the network."""
        return self._drained

    def __deepcopy__(self, memo: dict) -> "VectorizedExchange":
        """Copy the token state and meters; share the topology (graphs,
        CSR views, degree vectors), which an engine never writes."""
        topology = [self.graph, self.schedule, self._degrees,
                    self._indptr, self._indices]
        for graph, degrees in self._degree_cache.values():
            topology += [graph, degrees]
        memo.update((id(shared), shared) for shared in topology)
        clone = memo[id(self)] = object.__new__(type(self))
        clone.__dict__.update(copy.deepcopy(vars(self), memo))
        return clone

    def set_graph(self, graph: Graph) -> None:
        """Swap the communication graph in place (same node count).

        Rebinds the cached degree/CSR arrays; token positions, meters,
        iteration order, and the RNG stream are untouched — a swap
        consumes no randomness, which is what lets a schedule-driven run
        keep the exact RNG contract.

        On a schedule-constructed engine the schedule owns the topology:
        this method is exactly how it rebinds ``graph_at(round_index)``
        before each round, so a manual swap lasts only until the next
        round's sync overrides it.  To intervene on topology over time,
        encode the intervention in the schedule (its selector) instead.
        """
        if graph.num_nodes != self.graph.num_nodes:
            raise ValidationError(
                f"replacement graph has {graph.num_nodes} nodes, "
                f"engine has {self.graph.num_nodes}"
            )
        self.graph = graph
        cached = (
            self._degree_cache.get(id(graph))
            if self.schedule is not None else None
        )
        if cached is not None and cached[0] is graph:
            self._degree_cache.move_to_end(id(graph))
        else:
            cached = (graph, graph.degrees())
            if self.schedule is not None:
                self._degree_cache[id(graph)] = cached
                while len(self._degree_cache) > self._degree_cache_limit:
                    self._degree_cache.popitem(last=False)
        self._degrees = cached[1]
        self._indptr = graph.indptr
        self._indices = graph.indices

    def _sync_schedule(self) -> None:
        """Bind the scheduled topology for the current round (if any)."""
        if self.schedule is not None:
            graph = self.schedule.graph_at(self.round_index)
            if graph is not self.graph:
                self.set_graph(graph)

    def seed_tokens(self, origins: np.ndarray) -> None:
        """Place one token per entry of ``origins`` at that node.

        Token ids continue from the current count; ``token_origin`` for
        the new tokens equals ``origins``.  Seeding is only allowed
        before the campaign's first exchange round (repeated calls are
        fine) or after a :meth:`drain` — interleaving seeds with rounds
        would scramble the inbox-arrival order the exact RNG contract
        depends on.
        """
        origins = np.ascontiguousarray(origins, dtype=np.int64)
        if origins.ndim != 1:
            raise ValidationError("origins must be a 1-D integer array")
        if origins.size and (
            origins.min() < 0 or origins.max() >= self.num_users
        ):
            raise ValidationError("token origins out of range")
        # Validate isolation against the topology in force at the next
        # round — on a schedule the seeding round's graph, not graph 0.
        self._sync_schedule()
        if origins.size and np.any(self._degrees[origins] == 0):
            raise ValidationError("some tokens start on isolated nodes")
        if self._drained:
            # Drained tokens left the network (final delivery); seeding
            # afresh must not resurrect them — match the per-message
            # backend, whose nodes are empty after ``take_all``.
            self.token_origin = np.empty(0, dtype=np.int64)
            self.token_position = np.empty(0, dtype=np.int64)
        if self.token_position.size == 0:
            self._campaign_start_round = self.round_index
        elif self.round_index != self._campaign_start_round:
            raise SimulationError(
                "cannot seed tokens mid-exchange; drain the network first"
            )
        self.token_origin = np.concatenate([self.token_origin, origins])
        self.token_position = np.concatenate([self.token_position, origins])
        self._order = stable_argsort(self.token_position)
        self._drained = False
        counts = np.bincount(origins, minlength=self.num_users)
        self.meters.current_items += counts
        np.maximum(self.meters.peak_items, self.meters.current_items,
                   out=self.meters.peak_items)
        if self._paths is not None:
            self._paths = [self.token_position.copy()]

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """One synchronous exchange round (lines 4-8 of Algorithms 1/2)."""
        n = self.num_users
        # Topology swap first: it consumes no randomness, so the fault
        # and hop draws below stay in the contract's order.
        self._sync_schedule()
        offline = self.faults.offline_mask(n, self.round_index, self.rng)
        if self._drained:
            # Delivered tokens left the network: the round is a no-op
            # over an empty token set — but it still consumes the fault
            # model's draw and advances the clock, exactly like the
            # per-message reference iterating empty nodes.
            self.round_index += 1
            return
        self._numpy_round(offline)
        self.round_index += 1
        if self._paths is not None:
            self._paths.append(self.token_position.copy())

    def _numpy_round(self, offline: np.ndarray) -> None:
        """One round as a chain of NumPy passes."""
        n = self.num_users
        order = self._order
        moving_mask = ~offline[self.token_position[order]]
        movers = order[moving_mask]
        stayers = order[~moving_mask]

        sources = self.token_position[movers]
        source_degrees = self._degrees[sources]
        if movers.size and source_degrees.min() == 0:
            raise SimulationError(
                f"round {self.round_index}: a held token's node is "
                "isolated in the current topology"
            )
        draws = self.rng.random(movers.size)
        offsets = (draws * source_degrees).astype(np.int64)
        # floor(u * degree) lands in [0, degree) for every conforming
        # float64 draw, but a contract-violating u (a stubbed/custom
        # generator yielding 1.0, or float32 upstream) would index one
        # past the neighbor slice; clamping is bit-identical for all
        # non-boundary draws.
        np.minimum(offsets, source_degrees - 1, out=offsets)
        destinations = self._indices[self._indptr[sources] + offsets]
        self.token_position[movers] = destinations

        # Meter totals: every online holder sends all it held
        # (``current_items == bincount(token_position)``), and one
        # bincount counts the arrivals.
        meters = self.meters
        sends = np.where(offline, 0, meters.current_items)
        receipts = np.bincount(destinations, minlength=n)
        meters.messages_sent += sends
        meters.messages_received += receipts
        # Online holders empty their queue before deliveries land;
        # offline holders accumulate on top of what they kept.
        meters.current_items = np.where(
            offline, meters.current_items + receipts, receipts
        )
        np.maximum(meters.peak_items, meters.current_items,
                   out=meters.peak_items)

        # Next round's iteration order: kept items first (in their old
        # order), then arrivals in send order — a stable sort by the new
        # positions realizes exactly the per-message inbox order.
        sequence = np.concatenate([stayers, movers])
        self._order = sequence[stable_argsort(self.token_position[sequence])]

    def run(self, rounds: int) -> None:
        """Run ``rounds`` exchange rounds."""
        if rounds < 0:
            raise SimulationError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_round()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def held_counts(self) -> np.ndarray:
        """Items held per user — the allocation vector ``L``.

        Zero after :meth:`drain` (final delivery releases everything,
        like the per-message ``take_all``).
        """
        if self._drained:
            return np.zeros(self.num_users, dtype=np.int64)
        return np.bincount(self.token_position, minlength=self.num_users)

    def delivery_order(self) -> np.ndarray:
        """Token ids in server-delivery order.

        The per-message reference delivers node by node in ascending id,
        each node's items in held order — which is exactly
        :attr:`_order`.  Empty after :meth:`drain`: the delivered tokens
        have left the network.
        """
        if self._drained:
            return np.empty(0, dtype=np.int64)
        return self._order.copy()

    def drain(self) -> np.ndarray:
        """Release every token (the per-message ``take_all``); returns
        the delivery order.  Releases memory only — callers meter any
        resulting sends themselves.  Idempotent: a second drain returns
        an empty order, matching the per-message reference whose nodes
        are empty after ``take_all``."""
        order = self.delivery_order()
        self.meters.current_items[:] = 0
        self._drained = True
        return order

    def trajectories(self) -> np.ndarray:
        """Token paths, shape ``(num_tokens, rounds_since_seed + 1)``.

        Column 0 is the (latest) seeding; recording restarts if the
        network is drained and reseeded.  Only available when
        constructed with ``record_trajectories``.
        """
        if self._paths is None:
            raise SimulationError(
                "engine was not constructed with record_trajectories=True"
            )
        return np.stack(self._paths, axis=1)
