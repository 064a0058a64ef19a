"""Differential-privacy composition theorems.

The network-shuffling proofs compose the per-output mechanisms
``B^(1), ..., B^(n)`` with the *heterogeneous advanced composition* of
Kairouz, Oh & Viswanath (2017), quoted as Equation 6 of the paper:

    eps = sum_i (e^{eps_i} - 1) eps_i / (e^{eps_i} + 1)
          + sqrt(2 log(1/delta) sum_i eps_i^2).

Basic and (homogeneous) advanced composition are included for tests and
for the accountant in :mod:`repro.core.accounting`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_delta, check_epsilon


def basic_composition(epsilons: Iterable[float], deltas: Iterable[float] = ()) -> Tuple[float, float]:
    """Sequential (basic) composition: parameters add up."""
    eps_list = [check_epsilon(e, "epsilon", allow_zero=True) for e in epsilons]
    delta_list = [check_delta(d, "delta", allow_zero=True) for d in deltas]
    return float(sum(eps_list)), float(sum(delta_list))


def advanced_composition(
    epsilon: float, delta_prime: float, k: int, delta: float = 0.0
) -> Tuple[float, float]:
    """Homogeneous advanced composition (Dwork-Rothblum-Vadhan).

    ``k``-fold composition of an ``(epsilon, delta)``-DP mechanism is
    ``(eps', k*delta + delta_prime)``-DP with

        eps' = sqrt(2 k log(1/delta')) eps + k eps (e^eps - 1).
    """
    check_epsilon(epsilon)
    check_delta(delta_prime)
    check_delta(delta, allow_zero=True)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    eps_prime = (
        math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * epsilon
        + k * epsilon * math.expm1(epsilon)
    )
    return eps_prime, k * delta + delta_prime


def heterogeneous_advanced_composition(
    epsilons: Sequence[float], delta: float
) -> float:
    """Kairouz-Oh-Viswanath composition of heterogeneous pure-DP
    mechanisms (Equation 6 of the paper).

    Parameters
    ----------
    epsilons:
        Per-mechanism pure-DP parameters ``eps_1 .. eps_k``.
    delta:
        The composition's failure probability (any ``delta in (0,1)``).

    Returns
    -------
    float
        The composed ``eps`` such that the sequence is ``(eps, delta)``-DP.
    """
    check_delta(delta)
    eps_array = np.asarray(list(epsilons), dtype=np.float64)
    if eps_array.size == 0:
        return 0.0
    if np.any(eps_array < 0.0) or not np.all(np.isfinite(eps_array)):
        raise ValidationError("all epsilons must be finite and non-negative")
    expm1_terms = np.expm1(eps_array)
    linear = float(np.sum(expm1_terms * eps_array / (expm1_terms + 2.0)))
    quadratic = math.sqrt(2.0 * math.log(1.0 / delta) * float(np.sum(eps_array**2)))
    return linear + quadratic
