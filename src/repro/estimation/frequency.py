"""Private frequency estimation over network shuffling.

The "messaging-app analytics" workload from the paper's motivation:
every user holds a categorical value (e.g. a setting or answer), applies
k-ary randomized response, the reports mix over the social graph, and
the untrusted server reconstructs the population histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.estimation.metrics import max_absolute_error
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.ldp.randomized_response import KaryRandomizedResponse
from repro.protocols import run_protocol
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class FrequencyEstimationResult:
    """Outcome of one private frequency-estimation run."""

    protocol: str
    epsilon0: float
    estimate: np.ndarray
    truth: np.ndarray
    max_error: float
    dummy_count: int


def correct_for_dummies(
    raw_estimate: np.ndarray, dummy_fraction: float
) -> np.ndarray:
    """Remove the ``A_single`` dummy bias from a debiased histogram.

    Dummies are ``A_ldp(0)`` (Algorithm 2), so after channel inversion
    the observed histogram is ``(1 - f) * true + f * e_0`` where ``f``
    is the dummy fraction.  The server knows ``f`` in expectation (it is
    a property of the graph — :func:`repro.protocols.single_protocol.
    expected_empty_handed_stationary`), or exactly if dummies are
    flagged; either way the correction is the linear inversion below.
    """
    raw_estimate = np.asarray(raw_estimate, dtype=np.float64)
    if not 0.0 <= dummy_fraction < 1.0:
        raise ValidationError(
            f"dummy_fraction must lie in [0, 1), got {dummy_fraction}"
        )
    corrected = raw_estimate.copy()
    corrected[0] -= dummy_fraction
    return corrected / (1.0 - dummy_fraction)


def run_frequency_estimation(
    graph: Graph,
    symbols: np.ndarray,
    epsilon0: float,
    num_symbols: int,
    *,
    protocol: str = "all",
    rounds: Optional[int] = None,
    rng: RngLike = None,
) -> FrequencyEstimationResult:
    """End-to-end private histogram over network shuffling.

    ``A_single`` dummies are ``A_ldp(0)`` per Algorithm 2 — randomized-
    response applied to symbol 0 — so the dummy contribution is itself
    mostly noise; the estimator subtracts the RR bias as usual.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.ndim != 1 or symbols.size != graph.num_nodes:
        raise ValidationError(
            f"need one symbol per node: {symbols.size} symbols for "
            f"{graph.num_nodes} nodes"
        )
    if symbols.size and (symbols.min() < 0 or symbols.max() >= num_symbols):
        raise ValidationError("symbols out of range")
    generator = ensure_rng(rng)
    if rounds is None:
        from repro.graphs.spectral import mixing_time

        rounds = mixing_time(graph)

    randomizer = KaryRandomizedResponse(epsilon0, num_symbols)
    truth = np.bincount(symbols, minlength=num_symbols) / symbols.size

    # One randomize per dummy: k-ary RR's batch has the loop's law but not its stream.
    def dummies(g: np.random.Generator, count: int) -> np.ndarray:
        return np.array([randomizer.randomize(0, g) for _ in range(count)], dtype=np.int64)

    result = run_protocol(
        protocol, graph, rounds, values=symbols, randomizer=randomizer,
        dummy_factory=dummies, rng=generator,
    )
    dummy_count = result.dummy_count
    estimate = randomizer.estimate_frequencies(result.delivered_payloads)
    if dummy_count:
        estimate = correct_for_dummies(estimate, dummy_count / symbols.size)
    return FrequencyEstimationResult(
        protocol=protocol,
        epsilon0=epsilon0,
        estimate=estimate,
        truth=truth,
        max_error=max_absolute_error(estimate, truth),
        dummy_count=dummy_count,
    )
