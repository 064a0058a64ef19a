"""Random-walk engine: exact distribution evolution and token simulation.

Two complementary views of the same process:

* **Exact** — evolve the position probability vector with
  ``P(t+1) = M^T P(t)`` (Section 4.1).  Deterministic, O(m) per step.
  This is what Figure 5 uses to trace the walk on k-regular graphs
  exactly, exposing the early-time oscillation the paper remarks on.
* **Monte Carlo** — simulate ``num_tokens`` independent report tokens
  hopping to uniformly random neighbors.  This is what the protocol
  simulators (:mod:`repro.protocols`) build on, and lets us validate
  the exact dynamics empirically.

Both support *lazy* walks (stay put with probability ``laziness``),
the paper's fault-tolerance model (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.graphs.spectral import stationary_distribution, transition_matrix
from repro.utils.rng import RngLike
from repro.utils.validation import check_probability, check_probability_vector


def lazy_transition_matrix(graph: Graph, laziness: float) -> sp.csr_matrix:
    """Lazy walk matrix ``M_lazy = laziness * I + (1 - laziness) * M``.

    ``laziness`` models the probability a user is temporarily offline
    (battery depletion, network outage — Section 4.5) and keeps her
    reports for the round.  Any ``laziness > 0`` makes a bipartite
    connected graph ergodic.
    """
    check_probability(laziness, "laziness")
    matrix = transition_matrix(graph)
    if laziness == 0.0:
        return matrix
    identity = sp.identity(graph.num_nodes, format="csr")
    return (laziness * identity + (1.0 - laziness) * matrix).tocsr()


def evolve_distribution(
    graph: Graph,
    initial: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
) -> np.ndarray:
    """Evolve ``P(0) = initial`` for ``steps`` rounds; return ``P(steps)``.

    Computes ``P(t+1) = M^T P(t)`` with sparse mat-vec products — never
    materializes a matrix power.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    distribution = check_probability_vector(initial, "initial", size=graph.num_nodes)
    matrix_t = lazy_transition_matrix(graph, laziness).T.tocsr()
    current = distribution.astype(np.float64)
    for _ in range(steps):
        current = matrix_t @ current
    return current


def position_distribution(
    graph: Graph,
    start_node: int,
    steps: int,
    *,
    laziness: float = 0.0,
) -> np.ndarray:
    """``P(t)`` for a walk started deterministically at ``start_node``.

    This is the per-user position distribution ``P^G`` of the symmetric
    scenario: on a k-regular (vertex-transitive) graph every user's
    distribution is a relabeling of this one.
    """
    initial = np.zeros(graph.num_nodes)
    if not 0 <= start_node < graph.num_nodes:
        raise ValidationError(
            f"start_node {start_node} out of range for {graph.num_nodes} nodes"
        )
    initial[start_node] = 1.0
    return evolve_distribution(graph, initial, steps, laziness=laziness)


@dataclass
class WalkTrace:
    """Time series of walk statistics collected by :func:`trace_walk`."""

    steps: List[int] = field(default_factory=list)
    sum_squared: List[float] = field(default_factory=list)
    """``sum_i P_i(t)^2`` at each step — the quantity every theorem uses."""
    tv_distance: List[float] = field(default_factory=list)
    """``||P(t) - pi||_1`` graph total variation (Definition 4.4)."""

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (steps, sum_squared, tv_distance) as NumPy arrays."""
        return (
            np.asarray(self.steps, dtype=np.int64),
            np.asarray(self.sum_squared, dtype=np.float64),
            np.asarray(self.tv_distance, dtype=np.float64),
        )


def trace_walk(
    graph: Graph,
    initial: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
) -> WalkTrace:
    """Evolve a distribution and record per-step statistics.

    Returns a :class:`WalkTrace` with entries for ``t = 0 .. steps``.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    distribution = check_probability_vector(initial, "initial", size=graph.num_nodes)
    pi = stationary_distribution(graph)
    matrix_t = lazy_transition_matrix(graph, laziness).T.tocsr()
    trace = WalkTrace()
    current = distribution.astype(np.float64)
    for t in range(steps + 1):
        trace.steps.append(t)
        trace.sum_squared.append(float(np.dot(current, current)))
        trace.tv_distance.append(float(np.abs(current - pi).sum()))
        if t < steps:
            current = matrix_t @ current
    return trace


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


def simulate_token_walks(
    graph: Graph,
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
        The communication graph.
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
    The static walk is the schedule walk
    (:func:`repro.graphs.dynamic.simulate_tokens_on_schedule`) on a
    one-graph schedule: the same validation, draws and errors.  Fully
    vectorized — each round draws one uniform neighbor index per token
    using the CSR offsets, so a million token-steps cost a few NumPy
    gathers.
    """
    from repro.graphs.dynamic import (
        DynamicGraphSchedule,
        simulate_tokens_on_schedule,
    )

    return simulate_tokens_on_schedule(
        DynamicGraphSchedule([graph]), start_nodes, steps,
        laziness=laziness, rng=rng,
    )


def simulate_trial_walks(
    graph: Graph,
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
    2-million-token simulation (see
    :func:`repro.graphs.dynamic.simulate_trial_walks_on_schedule`).

    Returns
    -------
    numpy.ndarray
        Shape ``(trials, num_tokens)`` — row ``r`` holds the final
        holders of trial ``r``'s tokens.
    """
    from repro.graphs.dynamic import (
        DynamicGraphSchedule,
        simulate_trial_walks_on_schedule,
    )

    return simulate_trial_walks_on_schedule(
        DynamicGraphSchedule([graph]), start_nodes, steps, trials,
        laziness=laziness, rng=rng,
    )


def empirical_position_distribution(
    graph: Graph,
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
    graph: Graph,
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
