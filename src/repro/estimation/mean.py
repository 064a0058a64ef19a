"""Private mean estimation with PrivUnit — the Figure 9 experiment.

Paper setup (Section 5.6, following Chen-Kairouz-Ozgur): ``n`` users
hold ``d = 200``-dimensional samples,

    z_1 .. z_{n/2}  ~ N(1, 1)^d,      z_{n/2+1} .. z_n ~ N(10, 1)^d,

each normalized to the unit sphere (``x_i = z_i / ||z_i||``); dummies
(required by ``A_single``) are normalized draws from ``N(5, 1)^d``.
Every report is perturbed with PrivUnit at ``eps0``-LDP, exchanged by
network shuffling, and the server averages the debiased reports.

* ``A_all`` delivers all ``n`` genuine reports — the estimate is the
  plain average, unbiased regardless of who held what;
* ``A_single`` delivers one report per user: duplicates of the same
  walk's picks are impossible but *missing* reports are replaced by
  dummies, which both biases the estimate and discards signal — the
  utility penalty Figure 9 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.estimation.metrics import squared_l2_error
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.ldp.privunit import PrivUnit
from repro.protocols import run_protocol
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int


def generate_bimodal_unit_vectors(
    num_users: int,
    dimension: int = 200,
    *,
    low_mean: float = 1.0,
    high_mean: float = 10.0,
    rng: RngLike = None,
) -> np.ndarray:
    """The paper's bimodal, non-identical sample population.

    First half ``N(low_mean, 1)^d``, second half ``N(high_mean, 1)^d``,
    every row normalized to unit L2 norm.
    """
    check_positive_int(num_users, "num_users")
    check_positive_int(dimension, "dimension")
    generator = ensure_rng(rng)
    half = num_users // 2
    # ``normal(mean, 1)`` is ``mean + 1 * z``: standard normals plus the
    # mean, bit for bit, drawn straight into the one result array.
    samples = np.empty((num_users, dimension))
    for rows, mean in ((samples[:half], low_mean), (samples[half:], high_mean)):
        generator.standard_normal(out=rows)
        rows += mean
    # np.linalg.norm(samples, axis=1) for real input, one temporary fewer.
    norms = np.sqrt(np.add.reduce(np.square(samples), axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    samples /= norms
    return samples


def make_dummy_factory(
    randomizer: PrivUnit,
    *,
    dummy_mean: float = 5.0,
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Dummy-report factory: PrivUnit of a normalized ``N(dummy_mean, 1)^d``.

    Matches the paper: "we generate dummy sample by setting
    z ~ N(5, 1)^d" (then normalized and perturbed like a real report).
    ``draw(generator, count)`` returns ``count`` dummies as one
    ``(count, d)`` array through :meth:`PrivUnit.randomize_drawn`, bit
    for bit that draw made one dummy at a time:
    ``z = generator.normal(dummy_mean, 1.0, d)``, normalized by its 1-D
    ``np.linalg.norm`` (the stacked dot product equals it), then
    randomized.
    """
    def draw(generator: np.random.Generator, count: int) -> np.ndarray:
        return randomizer.randomize_drawn(dummy_mean, count, generator)

    return draw


def true_mean(values: np.ndarray) -> np.ndarray:
    """Ground-truth mean of the (normalized) population."""
    return np.asarray(values, dtype=np.float64).mean(axis=0)


def mean_estimate_from_run(result) -> MeanEstimationResult:
    """The server's mean estimate from a scenario ``RunResult``.

    ``result`` is a :class:`repro.scenario.RunResult` whose values are
    vectors and whose mechanism debiases (PrivUnit et al.): the server
    averages the delivered payloads and is scored against the mean of
    the raw values.  This is THE estimator — Figure 9, the federated
    example and :func:`run_mean_estimation` all consume it, so the
    figure can never drift from the library's definition.
    """
    if result.mechanism is None:
        raise ValidationError("mean estimation needs the run's mechanism; this run has none")
    if result.values is None or np.ndim(result.values) != 2:
        raise ValidationError(
            "mean estimation needs vector values (an (n, d) array); "
            f"this run has {'none' if result.values is None else 'scalar values'}"
        )
    return _mean_estimate(result.protocol_result, result.values, result.mechanism)


def _mean_estimate(protocol_result, values, mechanism) -> MeanEstimationResult:
    """Average the delivered payload array; score it against ``values``."""
    payloads = np.asarray(protocol_result.delivered_payloads, dtype=np.float64)
    truth = true_mean(values)
    estimate = payloads.mean(axis=0)
    return MeanEstimationResult(
        protocol=protocol_result.protocol,
        epsilon0=mechanism.epsilon,
        estimate=estimate,
        truth=truth,
        squared_error=squared_l2_error(estimate, truth),
        dummy_count=protocol_result.dummy_count,
        num_reports=payloads.shape[0],
    )


@dataclass(frozen=True)
class MeanEstimationResult:
    """Outcome of one private mean-estimation run."""

    protocol: str
    epsilon0: float
    estimate: np.ndarray
    truth: np.ndarray
    squared_error: float
    dummy_count: int
    num_reports: int


def run_mean_estimation(
    graph: Graph,
    values: np.ndarray,
    epsilon0: float,
    *,
    protocol: str = "all",
    rounds: Optional[int] = None,
    rng: RngLike = None,
) -> MeanEstimationResult:
    """End-to-end private mean estimation over network shuffling.

    Parameters
    ----------
    graph:
        Communication graph with one node per row of ``values``.
    values:
        ``(n, d)`` unit vectors.
    epsilon0:
        PrivUnit local budget.
    protocol:
        ``"all"`` or ``"single"``.
    rounds:
        Exchange rounds; defaults to the graph's mixing time.
    rng:
        Seed or generator.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    if values.shape[0] != graph.num_nodes:
        raise ValidationError(
            f"need one value per node: {values.shape[0]} values for "
            f"{graph.num_nodes} nodes"
        )
    generator = ensure_rng(rng)
    if rounds is None:
        from repro.graphs.spectral import mixing_time

        rounds = mixing_time(graph)

    randomizer = PrivUnit(epsilon0, values.shape[1])
    result = run_protocol(
        protocol, graph, rounds, values=values, randomizer=randomizer,
        dummy_factory=make_dummy_factory(randomizer), rng=generator,
    )
    return _mean_estimate(result, values, randomizer)
