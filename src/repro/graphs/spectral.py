"""Spectral machinery: transition matrices, spectral gap, mixing time.

Section 4.1 of the paper works with the row-stochastic transition matrix

    M_ij = A_ij / deg(i)        (i.e. M = D^{-1} A),

whose report-position dynamics are ``P(t+1) = M^T P(t)``, and with the
*normalized adjacency* ``N = D^{-1/2} A D^{-1/2}``, which is symmetric
and similar to ``M`` (so they share eigenvalues).  With eigenvalues
``1 = a_1 >= a_2 >= ... >= a_n > -1`` the *spectral gap* is

    alpha = min(1 - a_2, 1 - |a_n|),

and the mixing time is ``t ~= alpha^{-1} log n`` (Equation 5):
after that many steps ``TV(P(t), pi) <= sqrt(n) (1-alpha)^t <~ 1/sqrt(n)``.

Only ``max(a_2, |a_n|)`` enters ``alpha``.  Small graphs get it from a
dense eigendecomposition; large ones from a loose Lanczos solve on
``N`` with its known top eigenvector ``sqrt(pi)`` projected out,
started from a pinned vector so repeat solves are bit-identical.

The theorems only need a *lower* bound on ``alpha``, so the sparse
path prices ``alpha_lo = 1 - |theta| - ||N x - theta x||`` from the Ritz
pair ``(theta, x)``: some eigenvalue lies within the residual of
``theta``, so ``alpha_lo`` holds however loosely ``theta`` converged.
That bracket does not rule out a larger eigenvalue Lanczos missed; the
tests cross-check the solve against the dense spectrum up to
``_DENSE_EIGEN_LIMIT`` nodes for that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.amplification.network_shuffle import sum_squared_bound
from repro.exceptions import AccountingError, GraphError, ValidationError
from repro.graphs.connectivity import require_ergodic
from repro.graphs.graph import Graph
from repro.utils.validation import check_probability

#: Up to this node count we use dense eigendecomposition (exact, simple);
#: above it, one deflated Lanczos solve.
_DENSE_EIGEN_LIMIT = 1500

#: Relative eigenvalue tolerances of the sparse solve, in order: the
#: loose solve every graph gets, then the one tight retry from its Ritz
#: vector when the residual is above a tenth of the certified gap.  The
#: theorems price ``alpha_lo = 1 - |theta| - ||r||``, not the Ritz value,
#: so a loose solve is sound; it only gives up a residual's worth of
#: ``alpha`` (~1e-3 relative on a random regular graph).
_LANCZOS_TOLS = (1e-3, 1e-8)

#: Seed of the module's own generator for the sparse solve's start
#: vector: the solve consumes no caller stream and repeats bit for bit.
_START_VECTOR_SEED = 20220612


def transition_matrix(graph: Graph) -> sp.csr_matrix:
    """Row-stochastic random-walk matrix ``M = D^{-1} A``.

    Row ``i`` holds the probability of a report at node ``i`` moving to
    each neighbor: uniform over ``deg(i)`` neighbors.

    Raises
    ------
    GraphError
        If any node is isolated (division by zero degree).
    """
    degrees = graph.degrees().astype(np.float64)
    if np.any(degrees == 0):
        raise GraphError(
            "graph has isolated nodes; the transition matrix is undefined"
        )
    adjacency = graph.adjacency_matrix()
    inverse_degree = sp.diags(1.0 / degrees)
    return (inverse_degree @ adjacency).tocsr()


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


def normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """Symmetric normalized adjacency ``N = D^{-1/2} A D^{-1/2}``."""
    degrees = graph.degrees().astype(np.float64)
    if np.any(degrees == 0):
        raise GraphError(
            "graph has isolated nodes; the normalized adjacency is undefined"
        )
    adjacency = graph.adjacency_matrix()
    half = sp.diags(1.0 / np.sqrt(degrees))
    return (half @ adjacency @ half).tocsr()


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Stationary distribution ``pi = k / 2m`` (Section 4.1).

    For an ergodic graph the walk converges to ``pi`` regardless of the
    initial distribution; for a k-regular graph ``pi`` is uniform.
    """
    degrees = graph.degrees().astype(np.float64)
    total = degrees.sum()
    if total == 0:
        raise GraphError("graph has no edges; stationary distribution undefined")
    return degrees / total


def normalized_adjacency_eigenvalues(graph: Graph) -> np.ndarray:
    """The full spectrum of the normalized adjacency, descending, from a
    dense ``eigvalsh`` — the oracle behind :func:`spectral_gap` up to
    ``_DENSE_EIGEN_LIMIT`` nodes.

    Raises
    ------
    ValidationError
        Above ``_DENSE_EIGEN_LIMIT`` nodes, where a dense solve is too
        costly; :func:`spectral_gap` solves those sparsely.
    """
    if graph.num_nodes > _DENSE_EIGEN_LIMIT:
        raise ValidationError(
            f"normalized_adjacency_eigenvalues is dense-only (at most "
            f"{_DENSE_EIGEN_LIMIT} nodes, got {graph.num_nodes}); use "
            f"spectral_gap for the gap of a larger graph"
        )
    return np.linalg.eigvalsh(normalized_adjacency(graph).toarray())[::-1]


class GapBracket(NamedTuple):
    """A spectral gap with the solve that certifies it."""

    gap: float
    """``alpha_lo = max(1 - |theta| - ||r||, 0)``, what the theorems price."""
    ritz_gap: float
    """``1 - |theta|``, the Ritz estimate of ``alpha``."""
    residual: float
    """``||r|| = ||N x - theta x||`` of the unit Ritz vector ``x``."""


def deflated_spectral_gap(graph: Graph) -> GapBracket:
    """A certified lower bound on ``alpha`` from a loose Lanczos solve.

    ``theta`` is the largest-magnitude eigenvalue of ``N`` once its top
    eigenvector ``u = sqrt(pi)`` is projected out — ``max(a_2, |a_n|)``
    with its sign — and ``x`` its unit Ritz vector, deflated.  For a
    symmetric operator some eigenvalue lies within the residual
    ``||r|| = ||N x - theta x||`` of ``theta`` (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 4), so ``alpha_lo = 1 - |theta| - ||r||``
    is a lower bound on ``alpha`` however loosely ``theta`` converged.
    The bracket cannot rule out a larger eigenvalue that Lanczos missed
    altogether; the dense cross-check up to ``_DENSE_EIGEN_LIMIT`` nodes
    in the tests covers that case.

    The first solve runs at ``_LANCZOS_TOLS[0]``.  If its residual is
    above a tenth of ``alpha_lo`` (a slow-mixing graph, where a loose
    ``theta`` leaves almost no gap), it re-solves once at
    ``_LANCZOS_TOLS[1]``, restarting from the loose Ritz vector.  The
    first start vector is pinned and the retry's is a function of it, so
    repeat calls are bit-identical.

    Every projection and norm sums with ``np.multiply(...).sum()``, not
    ``@``: a BLAS ``ddot`` runs threaded on long vectors, and inside
    ARPACK's call pattern that makes the solve several times slower.

    Raises
    ------
    AccountingError
        If ARPACK fails (typically: no convergence), returns a
        non-finite eigenvalue, or the tight solve still leaves
        ``||r||`` above ``alpha_lo / 10``.
    """
    matrix = normalized_adjacency(graph)
    top = np.sqrt(stationary_distribution(graph))

    def deflate(vector: np.ndarray) -> np.ndarray:
        return vector - top * np.multiply(top, vector).sum()

    def apply(vector: np.ndarray) -> np.ndarray:
        return deflate(matrix @ vector)

    operator = spla.LinearOperator(matrix.shape, matvec=apply, dtype=np.float64)
    start = deflate(
        np.random.default_rng(_START_VECTOR_SEED).standard_normal(graph.num_nodes)
    )
    for tol in _LANCZOS_TOLS:
        try:
            (theta,), ritz = spla.eigsh(operator, k=1, which="LM", tol=tol, v0=start)
        except spla.ArpackError as error:
            raise AccountingError(
                f"spectral gap: Lanczos solve failed on a "
                f"{graph.num_nodes}-node graph: {error}"
            ) from None
        if not np.isfinite(theta):
            raise AccountingError(
                f"spectral gap: Lanczos returned a non-finite eigenvalue "
                f"{theta} on a {graph.num_nodes}-node graph"
            )
        start = deflate(ritz[:, 0])
        start /= np.sqrt(np.multiply(start, start).sum())
        error_vector = apply(start) - theta * start
        residual = float(np.sqrt(np.multiply(error_vector, error_vector).sum()))
        ritz_gap = 1.0 - abs(float(theta))
        bracket = GapBracket(max(ritz_gap - residual, 0.0), ritz_gap, residual)
        if 10.0 * residual <= bracket.gap:
            return bracket
    raise AccountingError(
        f"spectral gap: Lanczos residual {residual:.3g} is above a tenth of "
        f"the certified gap {bracket.gap:.3g} on a {graph.num_nodes}-node "
        f"graph, even at tolerance {_LANCZOS_TOLS[-1]:g}"
    )


def _gap_bracket(graph: Graph) -> GapBracket:
    """:func:`deflated_spectral_gap` above ``_DENSE_EIGEN_LIMIT`` nodes;
    below it the dense gap, which needs no certificate."""
    if graph.num_nodes > _DENSE_EIGEN_LIMIT:
        return deflated_spectral_gap(graph)
    eigenvalues = normalized_adjacency_eigenvalues(graph)
    if eigenvalues.size < 2:
        return GapBracket(1.0, 1.0, 0.0)
    second_largest = float(eigenvalues[1])
    smallest = float(eigenvalues[-1])
    # Clip tiny negative values caused by floating-point noise on
    # graphs that are exactly bipartite up to rounding.
    gap = max(min(1.0 - second_largest, 1.0 - abs(smallest)), 0.0)
    return GapBracket(gap, gap, 0.0)


def spectral_gap(graph: Graph, *, validate: bool = True) -> float:
    """Spectral gap ``alpha = min(1 - a_2, 1 - |a_n|)``, as the theorems
    price it.

    ``alpha in (0, 1]`` for ergodic graphs; 0 for disconnected or
    bipartite graphs (which is why ``validate`` rejects them upfront with
    a clearer error).  Above ``_DENSE_EIGEN_LIMIT`` nodes this is the
    certified lower bound ``alpha_lo`` of :func:`deflated_spectral_gap`.
    """
    if validate:
        require_ergodic(graph)
    return _gap_bracket(graph).gap


def mixing_time(
    graph: Graph,
    *,
    gap: Optional[float] = None,
    validate: bool = True,
) -> int:
    """Mixing time ``t = round(alpha^{-1} log n)`` (Equation 5).

    The paper runs every protocol for exactly this many rounds in the
    numerical analyses (Section 5.6).  ``gap`` short-circuits the
    eigen-computation when the caller already knows ``alpha``.
    """
    alpha = spectral_gap(graph, validate=validate) if gap is None else float(gap)
    if alpha <= 0.0:
        raise GraphError("spectral gap is zero; the walk never mixes")
    n = max(graph.num_nodes, 2)
    return max(1, int(round(np.log(n) / alpha)))


@dataclass(frozen=True)
class SpectralSummary:
    """Bundle of the spectral quantities the privacy bounds consume."""

    num_nodes: int
    num_edges: int
    spectral_gap: float
    """``alpha`` as the theorems price it: the certified ``alpha_lo`` of
    :func:`deflated_spectral_gap` above the dense limit, exact below."""
    mixing_time: int
    stationary_collision: float
    """``sum_i pi_i^2`` — the stationary limit of ``sum_i P_i(t)^2``."""
    irregularity_gamma: float
    """``Gamma_G = n * sum_i pi_i^2`` (Table 2); 1 for regular graphs."""
    ritz_gap: float
    """``1 - |theta|`` of the sparse solve; ``spectral_gap`` when dense."""
    gap_residual: float
    """The solve's residual ``||r||``, so ``spectral_gap = ritz_gap -
    gap_residual`` (clipped at 0); 0 when dense."""

    def sum_squared_bound(self, steps: int) -> float:
        """Equation 7 upper bound: ``sum P_i(t)^2 <= sum pi_i^2 + (1-alpha)^{2t}``
        (:func:`repro.amplification.network_shuffle.sum_squared_bound`)."""
        return sum_squared_bound(self.stationary_collision, self.spectral_gap, steps)


def spectral_summary(graph: Graph) -> SpectralSummary:
    """Compute every spectral quantity the amplification theorems need."""
    require_ergodic(graph)
    pi = stationary_distribution(graph)
    collision = float(np.dot(pi, pi))
    bracket = _gap_bracket(graph)
    return SpectralSummary(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        spectral_gap=bracket.gap,
        mixing_time=mixing_time(graph, gap=bracket.gap, validate=False),
        stationary_collision=collision,
        irregularity_gamma=graph.num_nodes * collision,
        ritz_gap=bracket.ritz_gap,
        gap_residual=bracket.residual,
    )
