"""Laplace mechanism as a pure-LDP local randomizer for bounded scalars."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.ldp.base import DebiasingRandomizer
from repro.utils.rng import RngLike, ensure_rng


class LaplaceMechanism(DebiasingRandomizer):
    """``eps``-LDP Laplace noise for values in ``[lower, upper]``.

    The local sensitivity is the domain width ``upper - lower`` (any two
    users' values can differ by that much), so noise has scale
    ``width / eps``.  The report is unbiased, hence :meth:`debias` is
    the identity.
    """

    def __init__(self, epsilon: float, lower: float = 0.0, upper: float = 1.0):
        super().__init__(epsilon)
        if not np.isfinite(lower) or not np.isfinite(upper) or lower >= upper:
            raise ValidationError(
                f"need finite lower < upper, got [{lower}, {upper}]"
            )
        self._lower = float(lower)
        self._upper = float(upper)
        self._scale = (self._upper - self._lower) / self.epsilon

    @property
    def scale(self) -> float:
        """Laplace noise scale ``b = width / eps``."""
        return self._scale

    @property
    def bounds(self) -> tuple[float, float]:
        """The admissible input interval ``[lower, upper]``."""
        return (self._lower, self._upper)

    def _randomize(self, value: float, rng: np.random.Generator) -> float:
        self._check_value(value)
        return float(value) + float(rng.laplace(0.0, self._scale))

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
        return array + generator.laplace(0.0, self._scale, size=array.shape)

    def debias(self, report: float) -> float:
        """Laplace noise is zero-mean: the report is already unbiased."""
        return float(report)

    def _check_value(self, value: float) -> None:
        value = float(value)
        if not self._lower <= value <= self._upper:
            raise ValidationError(
                f"value {value} outside [{self._lower}, {self._upper}]"
            )
