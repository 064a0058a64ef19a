"""Base interfaces for local randomizers.

Definition 2.2 of the paper: a mechanism ``A: D -> R`` is an
``(eps, delta)``-DP *local randomizer* if for all pairs ``x, x'`` the
output distributions are ``(eps, delta)``-indistinguishable.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_delta, check_epsilon


class LocalRandomizer(abc.ABC):
    """Abstract ``(epsilon, delta)``-LDP local randomizer.

    Subclasses set ``_epsilon``/``_delta`` in their constructor and
    implement :meth:`_randomize`.
    """

    def __init__(self, epsilon: float, delta: float = 0.0):
        self._epsilon = check_epsilon(epsilon)
        self._delta = check_delta(delta, allow_zero=True)

    @property
    def epsilon(self) -> float:
        """Local DP parameter ``eps0``."""
        return self._epsilon

    @property
    def delta(self) -> float:
        """Local DP parameter ``delta0`` (0 for pure-DP randomizers)."""
        return self._delta

    @property
    def is_pure(self) -> bool:
        """Whether the randomizer satisfies pure (``delta = 0``) LDP."""
        return self._delta == 0.0

    def randomize(self, value: Any, rng: RngLike = None) -> Any:
        """Randomize a single value; never mutates global RNG state."""
        return self._randomize(value, ensure_rng(rng))

    def randomize_batch(self, values: Any, rng: RngLike = None) -> Any:
        """Randomize a batch of values.

        **Exactness contract:** the result is bit for bit
        ``[randomize(v, rng) for v in values]`` and leaves the generator
        in the same state, so a caller may switch between the two forms
        without moving any seeded stream.  It rejects exactly the inputs
        :meth:`randomize` rejects.  The default loops over
        :meth:`_randomize`; vectorizable subclasses override this for
        speed and return an array whose first axis indexes ``values``.
        :class:`~repro.ldp.randomized_response.KaryRandomizedResponse` is
        the one documented exception: its batch draws every keep-coin
        before any substitute symbol, so it matches the loop in law but
        not in stream.
        """
        generator = ensure_rng(rng)
        return [self._randomize(value, generator) for value in values]

    @abc.abstractmethod
    def _randomize(self, value: Any, rng: np.random.Generator) -> Any:
        """Subclass hook: randomize one value with the given generator."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(epsilon={self._epsilon}, delta={self._delta})"
        )


class DebiasingRandomizer(LocalRandomizer):
    """A local randomizer with an unbiased estimator of its input.

    Mechanisms used for aggregate estimation (randomized response,
    PrivUnit, ...) expose :meth:`debias` so that averaging debiased
    reports yields an unbiased estimate of the population statistic.
    """

    @abc.abstractmethod
    def debias(self, report: Any) -> Any:
        """Map a raw report to an unbiased contribution."""
