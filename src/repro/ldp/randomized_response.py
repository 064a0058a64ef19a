"""Randomized response: the classical pure-LDP randomizers.

* :class:`BinaryRandomizedResponse` — Warner's coin for bits; truthful
  with probability ``e^eps / (e^eps + 1)``.
* :class:`KaryRandomizedResponse` — generalized RR over ``k`` symbols;
  truthful with probability ``e^eps / (e^eps + k - 1)``.

Both are exactly ``eps``-LDP and expose debiasing for frequency
estimation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.ldp.base import DebiasingRandomizer
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_symbol_array


class BinaryRandomizedResponse(DebiasingRandomizer):
    """Warner's randomized response on ``{0, 1}``.

    Reports the true bit with probability ``p = e^eps/(e^eps+1)`` and
    the flipped bit otherwise; the likelihood ratio is exactly
    ``p/(1-p) = e^eps``.
    """

    def __init__(self, epsilon: float):
        super().__init__(epsilon)
        self._truth_probability = math.exp(epsilon) / (math.exp(epsilon) + 1.0)

    @property
    def truth_probability(self) -> float:
        """Probability of reporting the true bit."""
        return self._truth_probability

    def _randomize(self, value: int, rng: np.random.Generator) -> int:
        bit = self._check_bit(value)
        if rng.random() < self._truth_probability:
            return bit
        return 1 - bit

    def randomize_batch(self, values, rng: RngLike = None) -> np.ndarray:
        """Vectorized batch randomization of a bit array (loop-exact:
        one uniform per value, in order)."""
        generator = ensure_rng(rng)
        array = np.asarray(values)
        # Same acceptance as _check_bit: values equal to 0 or 1, so 0.5
        # is refused rather than truncated.
        if array.size and (
            array.dtype.kind not in "biuf"
            or not np.all((array == 0) | (array == 1))
        ):
            raise ValidationError("binary RR inputs must be 0 or 1")
        bits = array.astype(np.int64)
        flips = generator.random(bits.shape) >= self._truth_probability
        return np.where(flips, 1 - bits, bits)

    def debias(self, report: float) -> float:
        """Unbiased per-report estimate: ``(report - (1-p)) / (2p - 1)``."""
        p = self._truth_probability
        return (float(report) - (1.0 - p)) / (2.0 * p - 1.0)

    @staticmethod
    def _check_bit(value: int) -> int:
        if value not in (0, 1):
            raise ValidationError(f"binary RR input must be 0 or 1, got {value!r}")
        return int(value)


class KaryRandomizedResponse(DebiasingRandomizer):
    """Generalized randomized response over the symbols ``0 .. k-1``.

    Reports the truth with probability ``e^eps/(e^eps + k - 1)``, else a
    uniformly random *other* symbol — exactly ``eps``-LDP for any ``k``.

    Each value draws two uniforms ``(u0, u1)``, in value order, whether
    or not it keeps: ``u0`` is the keep-coin and the substitute is
    ``floor(u1 · (k-1))``, clamped to ``k-2`` and shifted past the true
    symbol.  So the batch and the per-value path consume one stream
    identically.  The substitute's law is uniform up to float64
    resolution: ``u1`` is a multiple of ``2^-53``, so each of the
    ``k-1`` cells is hit with probability within about ``k · 2^-53`` of
    ``1/(k-1)``.
    """

    def __init__(self, epsilon: float, num_symbols: int):
        super().__init__(epsilon)
        self._num_symbols = check_positive_int(num_symbols, "num_symbols")
        if self._num_symbols < 2:
            raise ValidationError("k-ary RR needs at least 2 symbols")
        exp_eps = math.exp(epsilon)
        self._truth_probability = exp_eps / (exp_eps + self._num_symbols - 1.0)

    @property
    def num_symbols(self) -> int:
        """Alphabet size ``k``."""
        return self._num_symbols

    @property
    def truth_probability(self) -> float:
        """Probability of reporting the true symbol."""
        return self._truth_probability

    def _randomize(self, value: int, rng: np.random.Generator) -> int:
        symbol = self._check_symbol(value)
        keep, pick = rng.random(2)
        if keep < self._truth_probability:
            return symbol
        other = int(self._substitutes(pick))
        return other if other < symbol else other + 1

    def _substitutes(self, picks):
        """Uniform picks in ``[0, 1)`` -> the ``k-1`` other-symbol slots."""
        slots = self._num_symbols - 1
        cells = np.floor(np.multiply(picks, slots))
        return np.minimum(cells, slots - 1).astype(np.int64)

    def randomize_batch(self, values, rng: RngLike = None) -> np.ndarray:
        """Vectorized batch randomization of a symbol array (loop-exact:
        two uniforms per value, in order)."""
        generator = ensure_rng(rng)
        symbols = check_symbol_array(values, self._num_symbols, "k-ary RR")
        draws = generator.random(symbols.shape + (2,))
        keep = draws[..., 0] < self._truth_probability
        others = self._substitutes(draws[..., 1])
        others = np.where(others < symbols, others, others + 1)
        return np.where(keep, symbols, others)

    def estimate_frequencies(self, reports) -> np.ndarray:
        """Unbiased frequency estimate from a batch of reports.

        Inverts the RR channel: with truth probability ``p`` and lie
        probability ``q = (1-p)/(k-1)`` per other symbol, the observed
        frequency is ``f_obs = (p - q) f_true + q``, so
        ``f_true = (f_obs - q) / (p - q)``.
        """
        reports = np.asarray(reports, dtype=np.int64)
        counts = np.bincount(reports, minlength=self._num_symbols)
        observed = counts / max(1, reports.size)
        p = self._truth_probability
        q = (1.0 - p) / (self._num_symbols - 1.0)
        return (observed - q) / (p - q)

    def debias(self, report: int) -> np.ndarray:
        """One-hot debiasing of a single report (rarely needed directly)."""
        one_hot = np.zeros(self._num_symbols)
        one_hot[self._check_symbol(report)] = 1.0
        p = self._truth_probability
        q = (1.0 - p) / (self._num_symbols - 1.0)
        return (one_hot - q) / (p - q)

    def _check_symbol(self, value: int) -> int:
        if not isinstance(value, (int, np.integer)) or not 0 <= value < self._num_symbols:
            raise ValidationError(
                f"symbol must be an int in [0, {self._num_symbols}), got {value!r}"
            )
        return int(value)
