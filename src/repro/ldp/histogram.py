"""Unary-encoding (RAPPOR-style) histogram randomizer.

Each user one-hot encodes her symbol into a length-``k`` bit vector and
perturbs every bit independently: a 1 is kept with probability ``p``, a
0 is flipped on with probability ``q``.  With the symmetric choice

    p = e^{eps/2} / (e^{eps/2} + 1),    q = 1 - p,

the mechanism is ``eps``-LDP (each bit is an ``eps/2``-RR and a symbol
change flips exactly two bits).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.ldp.base import DebiasingRandomizer
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_symbol_array


class UnaryEncoding(DebiasingRandomizer):
    """Symmetric unary encoding over symbols ``0 .. k-1``."""

    def __init__(self, epsilon: float, num_symbols: int):
        super().__init__(epsilon)
        self._num_symbols = check_positive_int(num_symbols, "num_symbols")
        if self._num_symbols < 2:
            raise ValidationError("unary encoding needs at least 2 symbols")
        half = math.exp(epsilon / 2.0)
        self._keep_probability = half / (half + 1.0)
        self._flip_probability = 1.0 - self._keep_probability

    @property
    def num_symbols(self) -> int:
        """Alphabet size ``k``."""
        return self._num_symbols

    @property
    def keep_probability(self) -> float:
        """Probability a set bit stays set (``p``)."""
        return self._keep_probability

    @property
    def flip_probability(self) -> float:
        """Probability an unset bit turns on (``q``)."""
        return self._flip_probability

    def _randomize(self, value: int, rng: np.random.Generator) -> np.ndarray:
        if not isinstance(value, (int, np.integer)) or not 0 <= value < self._num_symbols:
            raise ValidationError(
                f"symbol must be an int in [0, {self._num_symbols}), got {value!r}"
            )
        bits = np.zeros(self._num_symbols, dtype=np.int8)
        bits[int(value)] = 1
        uniforms = rng.random(self._num_symbols)
        ones = uniforms < np.where(bits == 1, self._keep_probability, self._flip_probability)
        return ones.astype(np.int8)

    def randomize_batch(self, values, rng: RngLike = None) -> np.ndarray:
        """Vectorized batch randomization; returns ``(n, k)`` bit matrix
        (loop-exact: ``k`` uniforms per value, in order)."""
        generator = ensure_rng(rng)
        symbols = check_symbol_array(values, self._num_symbols, "unary encoding")
        one_hot = np.zeros((symbols.size, self._num_symbols), dtype=np.int8)
        one_hot[np.arange(symbols.size), symbols] = 1
        uniforms = generator.random(one_hot.shape)
        thresholds = np.where(
            one_hot == 1, self._keep_probability, self._flip_probability
        )
        return (uniforms < thresholds).astype(np.int8)

    def estimate_frequencies(self, reports: np.ndarray) -> np.ndarray:
        """Unbiased frequency estimate from an ``(n, k)`` report matrix."""
        reports = np.asarray(reports, dtype=np.float64)
        if reports.ndim != 2 or reports.shape[1] != self._num_symbols:
            raise ValidationError(
                f"reports must have shape (n, {self._num_symbols})"
            )
        observed = reports.mean(axis=0)
        p, q = self._keep_probability, self._flip_probability
        return (observed - q) / (p - q)

    def debias(self, report: np.ndarray) -> np.ndarray:
        """Debias one bit-vector report into per-symbol contributions."""
        report = np.asarray(report, dtype=np.float64)
        p, q = self._keep_probability, self._flip_probability
        return (report - q) / (p - q)
