"""Argument-validation helpers.

These raise :class:`repro.exceptions.ValidationError` (a ``ValueError``
subclass) with messages that name the offending parameter, so call sites
stay one-liners.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import InvalidPrivacyParameterError, ValidationError


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is a non-negative integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_node_index(value: int, num_nodes: int, name: str) -> int:
    """Return ``value`` if it is an integer node index in ``[0, num_nodes)``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or not 0 <= value < num_nodes
    ):
        raise ValidationError(
            f"{name} must be an integer node index in [0, {num_nodes}), "
            f"got {value!r}"
        )
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in ``[0, 1]``, else raise."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value}")
    return value


def check_epsilon(epsilon: float, name: str = "epsilon", *, allow_zero: bool = False) -> float:
    """Validate a differential-privacy ``epsilon`` parameter.

    ``epsilon`` must be finite and strictly positive (or non-negative when
    ``allow_zero`` is set, e.g. for degenerate comparisons).
    """
    epsilon = float(epsilon)
    if not np.isfinite(epsilon):
        raise InvalidPrivacyParameterError(f"{name} must be finite, got {epsilon}")
    lower_ok = epsilon >= 0.0 if allow_zero else epsilon > 0.0
    if not lower_ok:
        bound = "non-negative" if allow_zero else "positive"
        raise InvalidPrivacyParameterError(f"{name} must be {bound}, got {epsilon}")
    return epsilon


def check_delta(delta: float, name: str = "delta", *, allow_zero: bool = False) -> float:
    """Validate a differential-privacy ``delta`` parameter in ``(0, 1)``.

    ``allow_zero`` permits pure-DP statements (``delta == 0``).
    """
    delta = float(delta)
    lower_ok = delta >= 0.0 if allow_zero else delta > 0.0
    if not np.isfinite(delta) or not lower_ok or delta >= 1.0:
        interval = "[0, 1)" if allow_zero else "(0, 1)"
        raise InvalidPrivacyParameterError(f"{name} must lie in {interval}, got {delta}")
    return delta


def check_probability_vector(
    vector: np.ndarray,
    name: str = "probability vector",
    *,
    atol: float = 1e-8,
    size: Optional[int] = None,
) -> np.ndarray:
    """Validate a 1-D non-negative vector summing to 1 (within ``atol``)."""
    vector = np.asarray(vector, dtype=float)
    if vector.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {vector.shape}")
    if size is not None and vector.size != size:
        raise ValidationError(f"{name} must have length {size}, got {vector.size}")
    if vector.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if np.any(vector < -atol):
        raise ValidationError(f"{name} has negative entries")
    total = float(vector.sum())
    if abs(total - 1.0) > max(atol, atol * vector.size):
        raise ValidationError(f"{name} must sum to 1, got {total}")
    return vector


def check_symbol_array(values, num_symbols: int, name: str) -> np.ndarray:
    """Return ``values`` as an int64 array of symbols in ``[0, num_symbols)``.

    The batch twin of the per-value symbol check: an array of floats is
    refused rather than truncated (``2.7`` must not become symbol 2).
    """
    array = np.asarray(values)
    if not array.size:
        return array.astype(np.int64)
    if array.dtype.kind not in "biu":
        raise ValidationError(
            f"{name} symbols must be integers, got dtype {array.dtype}"
        )
    if array.min() < 0 or array.max() >= num_symbols:
        raise ValidationError(
            f"{name} symbols must lie in [0, {num_symbols})"
        )
    return array.astype(np.int64, copy=False)
