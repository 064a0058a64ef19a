"""Empirical collusion-threat analysis (paper Section 4.5).

Colluding users threaten anonymity: a colluder who relays a report
learns *who handed it to her and when*, which anchors the report's
trajectory and sharpens the adversary's origin posterior.  The paper
defers collusion defenses to systems work (Tarzan/MorphMix); this
module quantifies the threat *empirically* — no new theory, just a
measurable attack:

1. simulate the token walks retaining full trajectories;
2. give the adversary the server's final-round links **plus** every
   (token, round, sender) observation made by a colluding relay;
3. attack: anchor each observed token at its *earliest* colluder
   observation — the sender seen at round ``r`` pins the walk after
   ``r - 1`` free rounds, so the origin posterior is the ``r - 1``-step
   reverse walk from that sender.  Unobserved tokens fall back to the
   final-holder posterior.

The measured linkage accuracy interpolates between the honest-but-
curious setting (no colluders, near-``1/n``) and full linkage (all
users collude: privacy collapses to the LDP guarantee), exactly the
degradation Section 3.3 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.graphs.spectral import stationary_distribution, transition_matrix
from repro.netsim.engine import VectorizedExchange
from repro.netsim.faults import DropoutModel
from repro.utils.rng import RngLike


def simulate_walk_trajectories(
    graph: Graph,
    steps: int,
    *,
    faults: Optional[DropoutModel] = None,
    rng: RngLike = None,
) -> np.ndarray:
    """Token trajectories: shape ``(n_tokens, steps + 1)``.

    Token ``i`` starts at node ``i``; column ``t`` is its holder after
    ``t`` rounds.  Runs on the shared vectorized exchange engine with
    trajectory recording, so the adversary sees exactly the process the
    protocol simulators execute (same RNG contract, optional faults).
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    engine = VectorizedExchange(
        graph, faults=faults, rng=rng, record_trajectories=True
    )
    engine.seed_tokens(np.arange(graph.num_nodes, dtype=np.int64))
    engine.run(steps)
    return engine.trajectories()


@dataclass(frozen=True)
class CollusionObservation:
    """One colluder sighting of a token."""

    token: int
    round_index: int
    sender: int


@dataclass
class CollusionAttackResult:
    """Outcome of the collusion linkage attack."""

    num_tokens: int
    num_colluders: int
    observed_tokens: int
    linkage_accuracy: float
    baseline_accuracy: float
    """Accuracy of the same posterior attack *without* colluders."""

    @property
    def observation_rate(self) -> float:
        """Fraction of tokens sighted by at least one colluder."""
        return self.observed_tokens / self.num_tokens


def _first_observations(
    trajectories: np.ndarray, colluders: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Earliest colluder sighting per token, as flat arrays.

    Returns ``(tokens, round_indices, senders)`` for every token sighted
    at least once.  Pure NumPy over the trajectory matrix: one boolean
    lookup gather, one ``any``/``argmax`` pair along the round axis.
    """
    colluders = np.asarray(colluders, dtype=np.int64).ravel()
    horizon = trajectories.shape[1]
    if colluders.size == 0 or horizon <= 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    bound = int(max(trajectories.max(), colluders.max())) + 1
    is_colluder = np.zeros(bound, dtype=bool)
    is_colluder[colluders] = True
    sightings = is_colluder[trajectories[:, 1:]]
    tokens = np.flatnonzero(sightings.any(axis=1))
    round_indices = sightings[tokens].argmax(axis=1) + 1
    senders = trajectories[tokens, round_indices - 1]
    return tokens, round_indices, senders


def collect_observations(
    trajectories: np.ndarray, colluders: np.ndarray
) -> List[CollusionObservation]:
    """Every earliest (token, round, sender) sighting by a colluder."""
    tokens, round_indices, senders = _first_observations(
        np.asarray(trajectories), colluders
    )
    return [
        CollusionObservation(
            token=int(token), round_index=int(round_index), sender=int(sender)
        )
        for token, round_index, sender in zip(tokens, round_indices, senders)
    ]


#: Cap on dense-block cells (num_nodes x anchor columns) evolved at
#: once; larger anchor sets are processed in column chunks so memory
#: stays bounded on big graphs (the per-token loop this replaces was
#: O(n) memory).
_MAX_BLOCK_CELLS = 8_000_000


def _map_origins(
    graph: Graph, anchors: np.ndarray, free_rounds: np.ndarray
) -> np.ndarray:
    """MAP origins for many ``(anchor, free_rounds)`` queries at once.

    One dense ``(n, k)`` block of the ``k`` unique anchors' one-hot
    columns is pushed through the sparse reverse chain; every query
    reads its answer off the block at its own horizon.  By
    reversibility of the degree-biased walk, ``P(origin = i | at
    anchor after r rounds)`` is proportional to ``pi_i M^r[i, anchor]``
    under a uniform origin prior, so each column evolves the reverse
    walk from its anchor and reweights by ``pi``.  Each column applies
    exactly the matrix-vector sequence of the per-query reference
    (:func:`repro.testing.oracle.reverse_posterior_argmax`), so the
    guesses match it bit for bit — with one chain evolution per column
    chunk and one stationary-distribution solve total, instead of one
    per token.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    free_rounds = np.asarray(free_rounds, dtype=np.int64)
    guesses = np.empty(anchors.size, dtype=np.int64)
    if anchors.size == 0:
        return guesses
    zero_rounds = free_rounds == 0
    guesses[zero_rounds] = anchors[zero_rounds]
    pending = np.flatnonzero(~zero_rounds)
    if not pending.size:
        return guesses
    unique_anchors, anchor_columns = np.unique(
        anchors[pending], return_inverse=True
    )
    matrix_t = transition_matrix(graph).T.tocsr()
    pi = stationary_distribution(graph)
    pi_column = pi[:, np.newaxis]
    chunk = max(1, _MAX_BLOCK_CELLS // graph.num_nodes)
    for start in range(0, unique_anchors.size, chunk):
        columns = unique_anchors[start:start + chunk]
        in_chunk = (anchor_columns >= start) & (
            anchor_columns < start + columns.size
        )
        queries = pending[in_chunk]
        offsets = anchor_columns[in_chunk] - start
        horizons = free_rounds[queries]
        block = np.zeros((graph.num_nodes, columns.size))
        block[columns, np.arange(columns.size)] = 1.0
        max_rounds = int(horizons.max())
        for rounds in range(1, max_rounds + 1):
            block = matrix_t @ block
            due = horizons == rounds
            if due.any():
                posterior = block[:, offsets[due]] * pi_column
                guesses[queries[due]] = posterior.argmax(axis=0)
    return guesses


def run_collusion_attack(
    graph: Graph,
    rounds: int,
    colluders: Sequence[int],
    *,
    rng: RngLike = None,
) -> CollusionAttackResult:
    """Measure linkage accuracy with and without the colluder set."""
    colluder_array = np.asarray(list(colluders), dtype=np.int64)
    if colluder_array.size and (
        colluder_array.min() < 0 or colluder_array.max() >= graph.num_nodes
    ):
        raise ValidationError("colluder ids out of range")
    trajectories = simulate_walk_trajectories(graph, rounds, rng=rng)
    n = graph.num_nodes
    final_holders = trajectories[:, -1]

    # Colluder-aided anchors: the earliest sighting per observed token.
    tokens, round_indices, senders = _first_observations(
        trajectories, colluder_array
    )

    # One batched posterior pass answers both attacks: the baseline
    # anchors every token at its final holder with the full horizon,
    # the aided attack re-anchors observed tokens at their sighting.
    all_guesses = _map_origins(
        graph,
        np.concatenate([final_holders, senders]),
        np.concatenate([np.full(n, rounds, dtype=np.int64), round_indices - 1]),
    )
    baseline_guesses = all_guesses[:n]
    baseline_accuracy = float(np.mean(baseline_guesses == np.arange(n)))

    guesses = baseline_guesses.copy()
    guesses[tokens] = all_guesses[n:]
    accuracy = float(np.mean(guesses == np.arange(n)))
    return CollusionAttackResult(
        num_tokens=n,
        num_colluders=int(colluder_array.size),
        observed_tokens=int(tokens.size),
        linkage_accuracy=accuracy,
        baseline_accuracy=baseline_accuracy,
    )
