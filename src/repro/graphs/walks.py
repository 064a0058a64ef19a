"""Random-walk engine: exact distribution evolution and token simulation.

One process, ``P(t+1) = M_t^T P(t)`` (Section 4.1), seen two ways:

* **Exact** — evolve the position probability vector with sparse
  mat-vec products.  Deterministic, O(m) per step.  This is what
  Figure 5 uses to trace the walk on k-regular graphs exactly,
  exposing the early-time oscillation the paper remarks on.
* **Monte Carlo** — simulate independent report tokens hopping to
  uniformly random neighbors.  The auditor and the walk ablations
  build on this, and it validates the exact dynamics empirically.

Every walk function takes a :class:`~repro.graphs.graph.Graph` or a
:class:`~repro.graphs.dynamic.DynamicGraphSchedule`: a static graph is
walked as a one-graph schedule, so both run the same code and a graph
and ``DynamicGraphSchedule([graph])`` give bit-identical results.  Both
views support *lazy* walks (stay put with probability ``laziness``),
the paper's fault-tolerance model (Section 4.5).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule, GraphLike, _TransitionCache
from repro.graphs.graph import Graph
from repro.graphs.spectral import stationary_distribution
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import (
    check_node_index,
    check_probability,
    check_probability_vector,
)


def _as_schedule(graph: GraphLike) -> DynamicGraphSchedule:
    """``graph`` itself if it is a schedule, else its one-graph schedule."""
    if isinstance(graph, DynamicGraphSchedule):
        return graph
    return DynamicGraphSchedule([graph])


def evolve_distribution(
    graph: GraphLike,
    initial: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
) -> np.ndarray:
    """Evolve ``P(0) = initial`` for ``steps`` rounds; return ``P(steps)``.

    Each round applies the transition matrix of that round's graph,
    ``P(t+1) = M_t^T P(t)``, with sparse mat-vec products — never a
    matrix power.  A schedule's matrices are built once per distinct
    graph.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    check_probability(laziness, "laziness")
    distribution = check_probability_vector(initial, "initial", size=graph.num_nodes)
    transitions = _TransitionCache(_as_schedule(graph), laziness)
    current = distribution.astype(np.float64)
    for round_index in range(steps):
        current = transitions.at(round_index) @ current
    return current


def position_distribution(
    graph: GraphLike,
    start_node: int,
    steps: int,
    *,
    laziness: float = 0.0,
) -> np.ndarray:
    """``P(t)`` for a walk started deterministically at ``start_node``.

    This is the per-user position distribution ``P^G`` of the symmetric
    scenario: on a k-regular (vertex-transitive) graph every user's
    distribution is a relabeling of this one.  It is also what the
    informed-adversary audit statistics weigh payloads by.
    """
    start_node = check_node_index(start_node, graph.num_nodes, "start_node")
    initial = np.zeros(graph.num_nodes)
    initial[start_node] = 1.0
    return evolve_distribution(graph, initial, steps, laziness=laziness)


def total_variation_to_stationary(graph: Graph, distribution: np.ndarray) -> float:
    """Graph total variation ``||P - pi||_1`` (Definition 4.4).

    Note the paper's definition is the plain L1 distance, i.e. twice the
    usual statistical TV distance.
    """
    distribution = check_probability_vector(
        distribution, "distribution", size=graph.num_nodes
    )
    pi = stationary_distribution(graph)
    return float(np.abs(distribution - pi).sum())


def sum_squared_positions(distribution: np.ndarray) -> float:
    """``sum_i P_i^2`` of a position distribution."""
    distribution = np.asarray(distribution, dtype=np.float64)
    return float(np.dot(distribution, distribution))


class _HopContext:
    """Per-graph arrays the vectorized hop needs, computed once.

    This is the single home of the hop's graph-side setup — the token
    walk memoizes one per distinct topology — so the degree/CSR
    contract lives in one place.  ``uniform_degree`` is the scalar
    degree of a regular graph (the paper's main scenario: same uniform
    draws, one fewer million-element gather per round, bit-identical to
    the general path) or ``None``.
    """

    __slots__ = ("degrees", "uniform_degree", "has_isolated", "indptr", "indices")

    def __init__(self, graph: Graph):
        self.degrees = graph.degrees()
        self.uniform_degree = (
            int(self.degrees[0])
            if self.degrees.size and self.degrees.min() == self.degrees.max()
            else None
        )
        self.has_isolated = bool(self.degrees.size) and self.degrees.min() == 0
        self.indptr = graph.indptr
        self.indices = graph.indices


def _hop_tokens(
    holders: np.ndarray,
    context: _HopContext,
    laziness: float,
    generator: np.random.Generator,
) -> np.ndarray:
    """One walk hop on a prebuilt :class:`_HopContext`.

    A *moving* token on an isolated node raises ``SimulationError`` —
    the lazy-walk fault-model semantics of the exchange engine: a token
    that stays put this round (laziness) tolerates temporary isolation.
    The draw order (hop uniforms, then the laziness mask) is the
    established stream contract; the guard consumes no randomness.
    """
    degrees = context.degrees
    node_degrees = (
        context.uniform_degree if context.uniform_degree else degrees[holders]
    )
    offsets = (generator.random(holders.size) * node_degrees).astype(np.int64)
    # Same boundary clamp as the exchange engine: floor(u * degree)
    # can only reach degree on a contract-violating draw (u == 1.0
    # from a stubbed/custom generator); bit-identical otherwise.
    np.minimum(offsets, node_degrees - 1, out=offsets)
    if context.has_isolated:
        # Gather only where a neighbor exists (the draws above are
        # still one per token, keeping the stream contract); whether a
        # stranded token is an *error* depends on whether it moves.
        stranded = degrees[holders] == 0
        destinations = holders.copy()
        valid = ~stranded
        destinations[valid] = context.indices[
            context.indptr[holders[valid]] + offsets[valid]
        ]
    else:
        stranded = None
        destinations = context.indices[context.indptr[holders] + offsets]
    if laziness > 0.0:
        moving = generator.random(holders.size) >= laziness
        if stranded is not None and np.any(moving & stranded):
            raise SimulationError(
                "a moving token's node is isolated in the current topology"
            )
        return np.where(moving, destinations, holders)
    if stranded is not None and np.any(stranded):
        raise SimulationError(
            "a moving token's node is isolated in the current topology"
        )
    return destinations


def simulate_token_walks(
    graph: GraphLike,
    start_nodes: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Monte-Carlo simulate independent token walks; return final holders.

    Parameters
    ----------
    graph:
        The communication graph, or a schedule of one graph per round.
    start_nodes:
        Integer array of shape ``(num_tokens,)`` — where each token
        (report) starts.  Network shuffling starts token ``i`` at user
        ``i`` (``arange(n)``).
    steps:
        Number of exchange rounds ``t``.
    laziness:
        Per-round probability a token stays put (offline holder).
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Shape ``(num_tokens,)`` — holder of each token after ``steps``.

    Notes
    -----
    Fully vectorized — each round draws one uniform neighbor index per
    token using the CSR offsets, so a million token-steps cost a few
    NumPy gathers.  Per-graph degree/CSR lookups (:class:`_HopContext`)
    are memoized per *distinct topology*, so a cycling schedule pays one
    degree scan per graph, not per round.  A *moving* token stranded on
    a node the current topology isolates raises
    :class:`~repro.exceptions.SimulationError` — the exchange engine's
    lazy-walk semantics: a token that stays put this round tolerates
    temporary isolation.  Isolated *start* nodes are a
    :class:`~repro.exceptions.ValidationError`.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    check_probability(laziness, "laziness")
    schedule = _as_schedule(graph)
    holders = np.asarray(start_nodes, dtype=np.int64).copy()
    if holders.size and (
        holders.min() < 0 or holders.max() >= schedule.num_nodes
    ):
        raise ValidationError("start_nodes out of range")
    generator = ensure_rng(rng)
    # Like _TransitionCache, hold the graph alongside its context so a
    # lazily generated phase graph's id cannot be recycled mid-walk.
    contexts: Dict[int, Tuple[Graph, _HopContext]] = {}

    def context_for(round_index: int) -> _HopContext:
        current = schedule.graph_at(round_index)
        entry = contexts.get(id(current))
        if entry is None or entry[0] is not current:
            context = _HopContext(current)
            contexts[id(current)] = (current, context)
            return context
        return entry[1]

    start_context = context_for(0)
    if holders.size and start_context.has_isolated and np.any(
        start_context.degrees[holders] == 0
    ):
        raise ValidationError("some tokens start on isolated nodes")
    for round_index in range(steps):
        try:
            holders = _hop_tokens(
                holders, context_for(round_index), laziness, generator
            )
        except SimulationError as error:
            raise SimulationError(f"round {round_index}: {error}") from None
    return holders


def simulate_trial_walks(
    graph: GraphLike,
    start_nodes: np.ndarray,
    steps: int,
    trials: int,
    *,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Simulate ``trials`` independent repetitions of a token-walk batch.

    All ``trials x num_tokens`` walks run as one flat token walk — the
    trial axis is tiled into the token axis, so a 2000-trial audit on a
    1000-node graph costs the same NumPy gathers as a single
    2-million-token simulation, one hop per round.

    Returns
    -------
    numpy.ndarray
        Shape ``(trials, num_tokens)`` — row ``r`` holds the final
        holders of trial ``r``'s tokens.
    """
    if trials < 1:
        raise ValidationError(f"trials must be positive, got {trials}")
    starts = np.asarray(start_nodes, dtype=np.int64)
    finals = simulate_token_walks(
        graph, np.tile(starts, trials), steps, laziness=laziness, rng=rng
    )
    return finals.reshape(trials, starts.size)


def empirical_position_distribution(
    graph: GraphLike,
    start_node: int,
    steps: int,
    *,
    num_samples: int = 10_000,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Estimate ``P(t)`` by Monte Carlo from repeated walks.

    Used in tests to validate :func:`position_distribution` and in the
    walk-method ablation bench.
    """
    starts = np.full(num_samples, start_node, dtype=np.int64)
    finals = simulate_token_walks(
        graph, starts, steps, laziness=laziness, rng=rng
    )
    counts = np.bincount(finals, minlength=graph.num_nodes)
    return counts / float(num_samples)


def report_allocation(
    graph: GraphLike,
    steps: int,
    *,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Simulate network shuffling's report allocation vector ``L``.

    Every user starts with exactly one report; after ``steps`` rounds
    ``L_i`` counts the reports held by user ``i`` (Lemma 5.1's random
    variable).  ``sum_i L_i == n`` always.
    """
    starts = np.arange(graph.num_nodes, dtype=np.int64)
    finals = simulate_token_walks(graph, starts, steps, laziness=laziness, rng=rng)
    return np.bincount(finals, minlength=graph.num_nodes)
