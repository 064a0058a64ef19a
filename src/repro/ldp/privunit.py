"""PrivUnit: eps-LDP randomizer for unit vectors (Bhowmick et al. 2018).

Used by the paper's Figure 9 privacy-utility experiment to perturb
``d = 200``-dimensional normalized samples before network shuffling.

Mechanism (``PrivUnit(p, gamma)``): given a unit vector ``u``, draw the
report ``V`` uniformly from the spherical cap
``C = {v : <v, u> >= gamma}`` with probability ``p``, else uniformly
from its complement; output ``V / m`` where ``m`` is the exact
expectation scale so the report is an unbiased estimate of ``u``.

Privacy: the density ratio between inputs is at most

    (p / q) / ((1 - p) / (1 - q)) = p (1 - q) / (q (1 - p)),

where ``q`` is the uniform measure of the cap.  This implementation
splits the budget evenly — ``p = sigmoid(eps/2)`` and ``gamma`` chosen
so that ``(1 - q)/q = e^{eps/2}`` — giving *exactly* ``eps``-LDP.

All cap geometry uses the Beta representation of ``T = <V, u>`` for a
uniform ``V`` on the sphere: ``(T + 1)/2 ~ Beta((d-1)/2, (d-1)/2)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import special

from repro.exceptions import ValidationError
from repro.ldp.base import DebiasingRandomizer
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

#: Numerical floor/ceiling for probabilities fed into Beta inversions.
_PROB_EPS = 1e-14

#: Rows per vectorized block: the working set beyond the reports stays
#: O(block * d) however many vectors a batch holds.
_BLOCK_ROWS = 512


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """A 2-D block's row norms as a column, each ``np.linalg.norm(row)``.

    The norm of one 1-D array is ``sqrt(dot(z, z))``; a stacked
    ``(1, d) @ (d, 1)`` product takes that same dot product row by row,
    where an ``axis=1`` reduction sums in another order and can differ
    in the last bit.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0]


def cap_mass(gamma: float, dimension: int) -> float:
    """Uniform measure of the cap ``{v in S^{d-1} : <v, u> >= gamma}``.

    Computed via ``P(T >= gamma)`` with ``(T+1)/2 ~ Beta(a, a)``,
    ``a = (d-1)/2``.
    """
    if not -1.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [-1, 1], got {gamma}")
    a = (dimension - 1) / 2.0
    # P(T >= gamma) = 1 - I_{(gamma+1)/2}(a, a)
    return float(1.0 - special.betainc(a, a, (gamma + 1.0) / 2.0))


def cap_threshold(mass: float, dimension: int) -> float:
    """Inverse of :func:`cap_mass`: the ``gamma`` whose cap has ``mass``."""
    if not 0.0 < mass < 1.0:
        raise ValidationError(f"mass must lie in (0, 1), got {mass}")
    a = (dimension - 1) / 2.0
    x = special.betaincinv(a, a, 1.0 - mass)
    return float(2.0 * x - 1.0)


def _log_alpha(gamma: float, dimension: int) -> float:
    """``log E[T * 1{T >= gamma}]`` for uniform ``V``, in log space.

    With ``a = (d-1)/2``: ``E[T 1{T>=gamma}] = (1-gamma^2)^a / (2a B(a, 1/2))``.
    """
    a = (dimension - 1) / 2.0
    return (
        a * math.log1p(-gamma * gamma)
        - math.log(2.0 * a)
        - special.betaln(a, 0.5)
    )


class PrivUnit(DebiasingRandomizer):
    """Exactly ``eps``-LDP unbiased randomizer for vectors on ``S^{d-1}``.

    :meth:`randomize_batch` and :meth:`randomize_drawn` (Figure 9's
    Gaussian dummy inputs) are stream-exact: row by row they draw what
    :meth:`randomize` draws, in its order, into buffers of one
    ``_BLOCK_ROWS`` block, and do the arithmetic in place per block.

    Parameters
    ----------
    epsilon:
        Local privacy budget ``eps0``.
    dimension:
        Ambient dimension ``d >= 2``.
    budget_split:
        Fraction of ``eps`` spent on the cap-selection coin ``p`` (the
        remainder shapes the cap threshold ``gamma``).  0.5 — an even
        split — is the default and a solid all-round choice.
    """

    def __init__(self, epsilon: float, dimension: int, *, budget_split: float = 0.5):
        super().__init__(epsilon)
        self._dimension = check_positive_int(dimension, "dimension")
        if self._dimension < 2:
            raise ValidationError("PrivUnit requires dimension >= 2")
        if not 0.0 < budget_split < 1.0:
            raise ValidationError(
                f"budget_split must lie in (0, 1), got {budget_split}"
            )
        eps_coin = budget_split * epsilon
        eps_cap = epsilon - eps_coin
        # p / (1 - p) = e^{eps_coin}
        self._cap_probability = 1.0 / (1.0 + math.exp(-eps_coin))
        # (1 - q) / q = e^{eps_cap}  =>  q = sigmoid(-eps_cap)
        self._cap_mass = max(1.0 / (1.0 + math.exp(eps_cap)), _PROB_EPS)
        self._gamma = cap_threshold(self._cap_mass, self._dimension)
        a = (self._dimension - 1) / 2.0
        # F(gamma) for the Beta inverse-CDF draw of <V, u>.
        self._threshold_quantile = float(
            special.betainc(a, a, (self._gamma + 1.0) / 2.0)
        )
        self._scale = self._expectation_scale()

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Ambient dimension ``d``."""
        return self._dimension

    @property
    def gamma(self) -> float:
        """Cap threshold ``gamma``."""
        return self._gamma

    @property
    def cap_probability(self) -> float:
        """Probability ``p`` of drawing from the cap."""
        return self._cap_probability

    @property
    def scale(self) -> float:
        """Unbiasing scale ``m``: ``E[V] = m u``, reports are ``V / m``."""
        return self._scale

    def _expectation_scale(self) -> float:
        """``m = alpha (p/q - (1-p)/(1-q))`` with ``alpha = E[T 1{T>=gamma}]``.

        Uses ``E[T 1{T<gamma}] = -E[T 1{T>=gamma}]`` (the full mean is 0).
        """
        alpha = math.exp(_log_alpha(self._gamma, self._dimension))
        p, q = self._cap_probability, self._cap_mass
        return alpha * (p / q - (1.0 - p) / (1.0 - q))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _randomize(self, value: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.randomize_batch(np.asarray(value)[None, :], rng)[0]

    def randomize_batch(self, values, rng: RngLike = None) -> np.ndarray:
        """Randomize an ``(n, d)`` batch of unit vectors.

        Returns the *debiased* reports ``V / m`` (shape ``(n, d)``), so
        averaging reports estimates the mean of the inputs.  Loop-exact:
        each row draws its cap coin, its Beta uniform and its ``d``
        normals in that order, as :meth:`randomize` does, and only the
        arithmetic is vectorized.
        """
        generator = ensure_rng(rng)
        vectors = np.asarray(values, dtype=np.float64)
        # An empty batch is zero rows, not one row of dimension zero.
        vectors = (
            vectors.reshape(0, self._dimension) if not vectors.size
            else np.atleast_2d(vectors)
        )
        if vectors.shape[1] != self._dimension:
            raise ValidationError(
                f"vectors must have dimension {self._dimension}, "
                f"got {vectors.shape[1]}"
            )
        if np.any(np.abs(_row_norms(vectors) - 1.0) > 1e-6):
            raise ValidationError("PrivUnit inputs must be unit vectors")
        return self._randomize_rows(generator, vectors.shape[0], vectors=vectors)

    def randomize_drawn(
        self, mean: float, count: int, rng: RngLike = None
    ) -> np.ndarray:
        """Randomize ``count`` normalized ``N(mean, 1)^d`` draws.

        Row ``i`` draws its ``d`` input normals and then its PrivUnit
        randomness, so the result is bit for bit ``count`` calls of
        ``randomize(z / np.linalg.norm(z), generator)`` with
        ``z = generator.normal(mean, 1.0, d)``.  The inputs are
        normalized per block by :func:`_row_norms`, which equals each
        row's 1-D ``np.linalg.norm`` bit for bit.
        """
        generator = ensure_rng(rng)
        return self._randomize_rows(generator, count, mean=float(mean))

    def _randomize_rows(
        self,
        generator: np.random.Generator,
        count: int,
        *,
        vectors: Optional[np.ndarray] = None,
        mean: float = 0.0,
    ) -> np.ndarray:
        """Per-row draws in stream order, vectorized math per row block.

        Without ``vectors`` each row first draws its own Gaussian input
        (see :meth:`randomize_drawn`).  The draws land in buffers of at
        most one block, reused across blocks, and ``normal(0, 1)``
        equals ``standard_normal`` bit for bit.
        """
        dimension = self._dimension
        reports = np.empty((count, dimension))
        size = min(_BLOCK_ROWS, count)
        uniforms = np.empty((size, 2))
        raw = np.empty((size, dimension))
        inputs = np.empty((size, dimension)) if vectors is None else None
        random, standard_normal = generator.random, generator.standard_normal
        for start in range(0, count, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, count - start)
            rows_drawn = zip(uniforms[:rows], raw[:rows])
            if vectors is None:
                block = inputs[:rows]
                for row_input, (row_uniforms, row_raw) in zip(block, rows_drawn):
                    standard_normal(out=row_input)
                    random(out=row_uniforms)
                    standard_normal(out=row_raw)
                block += mean
                block /= _row_norms(block)
            else:
                block = vectors[start:start + rows]
                for row_uniforms, row_raw in rows_drawn:
                    random(out=row_uniforms)
                    standard_normal(out=row_raw)
            self._perturb(
                block, uniforms[:rows], raw[:rows], reports[start:start + rows]
            )
        return reports

    def _perturb(
        self,
        vectors: np.ndarray,
        uniforms: np.ndarray,
        raw: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Write debiased reports from pre-drawn randomness into ``out``.

        ``uniforms[:, 0]`` is the cap coin.  ``T = <V, u>`` is sampled by
        inverse CDF from ``uniforms[:, 1]`` through the Beta
        representation: if ``F`` is the CDF of ``(T+1)/2 ~ Beta(a, a)``
        and ``F(g)`` the threshold quantile, cap draws take
        ``F^{-1}(U(F(g), 1))`` and complement draws ``F^{-1}(U(0, F(g)))``.

        ``raw`` is consumed and ``out`` doubles as the work buffer.  The
        in-place ufuncs apply the operations of the plain expressions in
        their order, so the bits are those of fresh temporaries.
        """
        a = (self._dimension - 1) / 2.0
        in_cap = uniforms[:, 0] < self._cap_probability
        threshold = self._threshold_quantile
        quantiles = np.where(
            in_cap,
            threshold + uniforms[:, 1] * (1.0 - threshold),
            uniforms[:, 1] * threshold,
        )
        quantiles = np.clip(quantiles, _PROB_EPS, 1.0 - _PROB_EPS)
        dots = 2.0 * special.betaincinv(a, a, quantiles) - 1.0

        # Decompose V = t*u + sqrt(1-t^2)*w with w uniform on the sphere
        # orthogonal to u: w is raw minus its projection on u, normalized
        # (np.linalg.norm's axis=1 form, sqrt(add.reduce(x * x))).
        np.multiply(raw, vectors, out=out)
        np.multiply(np.add.reduce(out, axis=1, keepdims=True), vectors, out=out)
        raw -= out
        np.multiply(raw, raw, out=out)
        raw_norms = np.sqrt(np.add.reduce(out, axis=1, keepdims=True))
        raw_norms[raw_norms == 0.0] = 1.0
        raw /= raw_norms
        raw *= np.sqrt(np.clip(1.0 - dots * dots, 0.0, 1.0))[:, None]
        np.multiply(dots[:, None], vectors, out=out)
        out += raw
        out /= self._scale

    def debias(self, report: np.ndarray) -> np.ndarray:
        """Reports from :meth:`randomize_batch` are already debiased."""
        return np.asarray(report, dtype=np.float64)

    def expected_squared_error(self) -> float:
        """``E ||A(u) - u||^2`` for any unit input ``u``.

        ``E||V/m||^2 = 1/m^2`` (V is a unit vector) and ``E[V/m] = u``,
        so the error is ``1/m^2 - 1``.  Decreases as ``eps`` grows.
        """
        return 1.0 / (self._scale * self._scale) - 1.0
