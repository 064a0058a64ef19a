"""Numerically stable math helpers used by the privacy bounds.

The amplification theorems involve expressions like ``e^{32 eps0}`` that
overflow ordinary floats for large ``eps0``; these helpers keep such
computations in log space where possible.  :func:`stable_argsort` is
the library's one stable reorder of integer keys (exchange order,
components).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError

_LOG_HALF = math.log(0.5)


def stable_expm1(x: float) -> float:
    """``e^x - 1`` computed without cancellation for small ``x``."""
    return math.expm1(x)


def log1mexp(x: float) -> float:
    """Compute ``log(1 - e^{x})`` for ``x < 0`` stably.

    Uses the standard two-branch trick (Maechler 2012): for
    ``x > -log 2`` use ``log(-expm1(x))``, otherwise ``log1p(-exp(x))``.
    """
    if x >= 0.0:
        raise ValueError(f"log1mexp requires x < 0, got {x}")
    if x > _LOG_HALF:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log_add_exp(a: float, b: float) -> float:
    """``log(e^a + e^b)`` without overflow."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_sub_exp(a: float, b: float) -> float:
    """``log(e^a - e^b)`` for ``a > b`` without overflow."""
    if b == -math.inf:
        return a
    if a <= b:
        raise ValueError(f"log_sub_exp requires a > b, got a={a}, b={b}")
    return a + log1mexp(b - a)


def softplus_inverse(y: float) -> float:
    """Inverse of ``softplus(x) = log(1 + e^x)``; helper for bound inversion."""
    if y <= 0.0:
        raise ValueError(f"softplus_inverse requires y > 0, got {y}")
    return y + math.log(-math.expm1(-y))


def binary_search_monotone(
    function,
    target: float,
    lower: float,
    upper: float,
    *,
    increasing: bool = True,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """Solve ``function(x) = target`` for a monotone ``function`` on
    ``[lower, upper]`` by bisection.

    Returns the midpoint of the final bracket.  Used e.g. to invert
    amplification bounds (find the ``eps0`` achieving a desired central
    ``eps``) and to calibrate synthetic datasets.
    """
    if lower >= upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    lo, hi = float(lower), float(upper)
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        value = function(mid)
        if abs(value - target) <= tolerance:
            return mid
        too_small = value < target if increasing else value > target
        if too_small:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tolerance * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for 1-D integer keys, as one
    unstable sort of packed keys.

    Each key is packed with its index as ``(key << shift) | index``,
    ``shift = count.bit_length()``.  The packed values are distinct and
    order by key first, index second, so NumPy's default (SIMD) sort of
    them realizes the stable permutation bit for bit; masking the low
    ``shift`` bits recovers it.  On int64 keys that sort is several
    times faster than the stable timsort/radix path.  Keys whose packed
    value would overflow int64 raise
    :class:`~repro.exceptions.ValidationError` rather than mis-order.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    shift = keys.size.bit_length()
    limit = np.iinfo(np.int64).max >> shift
    if int(keys.max()) > limit or int(keys.min()) < -limit - 1:
        raise ValidationError(
            f"keys outside [{-limit - 1}, {limit}] overflow int64 when "
            f"packed with {shift} index bits"
        )
    packed = keys.astype(np.int64)
    packed <<= shift
    packed |= np.arange(keys.size, dtype=np.int64)
    packed.sort()
    packed &= (1 << shift) - 1
    return packed
