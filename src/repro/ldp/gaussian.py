"""Gaussian mechanism: the canonical *approximate*-LDP randomizer.

The paper's approximate-DP amplification statements (the
``(eps0, delta0)`` halves of Theorems 5.3-5.6, via Lemma 5.2) need an
``(eps0, delta0)``-LDP randomizer with ``delta0 > 0``; the Gaussian
mechanism is the standard example.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.ldp.base import DebiasingRandomizer
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_delta, check_epsilon


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Classical calibration ``sigma = sensitivity * sqrt(2 ln(1.25/delta)) / eps``.

    Valid for ``eps <= 1`` (Dwork & Roth Theorem A.1); for larger ``eps``
    it remains a safe (conservative) choice.
    """
    check_epsilon(epsilon)
    check_delta(delta)
    if sensitivity <= 0:
        raise ValidationError(f"sensitivity must be positive, got {sensitivity}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


class GaussianMechanism(DebiasingRandomizer):
    """``(eps, delta)``-LDP Gaussian noise for values in ``[lower, upper]``."""

    def __init__(
        self,
        epsilon: float,
        delta: float,
        lower: float = 0.0,
        upper: float = 1.0,
    ):
        super().__init__(epsilon, delta)
        check_delta(delta)  # Gaussian requires strictly positive delta.
        if not np.isfinite(lower) or not np.isfinite(upper) or lower >= upper:
            raise ValidationError(
                f"need finite lower < upper, got [{lower}, {upper}]"
            )
        self._lower = float(lower)
        self._upper = float(upper)
        self._sigma = gaussian_sigma(epsilon, delta, self._upper - self._lower)

    @property
    def sigma(self) -> float:
        """Gaussian noise standard deviation."""
        return self._sigma

    @property
    def bounds(self) -> tuple[float, float]:
        """The admissible input interval ``[lower, upper]``."""
        return (self._lower, self._upper)

    def _randomize(self, value: float, rng: np.random.Generator) -> float:
        value = float(value)
        if not self._lower <= value <= self._upper:
            raise ValidationError(
                f"value {value} outside [{self._lower}, {self._upper}]"
            )
        return value + float(rng.normal(0.0, self._sigma))

    def randomize_batch(self, values, rng: RngLike = None) -> np.ndarray:
        """Vectorized batch randomization (loop-exact: one draw per value,
        in order)."""
        generator = ensure_rng(rng)
        array = np.asarray(values, dtype=np.float64)
        # Elementwise, so a NaN is refused as the per-value check refuses it.
        if not np.all((array >= self._lower) & (array <= self._upper)):
            raise ValidationError(
                f"values must lie in [{self._lower}, {self._upper}]"
            )
        return array + generator.normal(0.0, self._sigma, size=array.shape)

    def debias(self, report: float) -> float:
        """Gaussian noise is zero-mean: the report is already unbiased."""
        return float(report)
