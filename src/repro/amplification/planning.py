"""Deployment planning: inverting the amplification bounds.

The theorems map ``(eps0, t) -> central eps``.  A deployment usually
starts from the other end: *"we promised users central eps = 1; how
much local noise do clients need, and how many exchange rounds?"*.
Both bounds are monotone in their arguments, so bisection inverts them
exactly:

* :func:`required_epsilon0` — the largest local budget whose central
  guarantee stays under the target (more local budget = less noise =
  better utility, so we want the maximum);
* :func:`required_rounds` — the fewest exchange rounds whose Equation 7
  collision bound brings the central guarantee under the target.
"""

from __future__ import annotations

from typing import Optional

from repro.amplification.network_shuffle import sum_squared_bound, theorem_bound
from repro.exceptions import ValidationError
from repro.utils.mathutils import binary_search_monotone
from repro.utils.validation import check_delta, check_epsilon, check_positive_int

#: Search bracket for the local budget.
_EPS0_LOW = 1e-4
_EPS0_HIGH = 20.0


def _central_epsilon(
    protocol: str,
    epsilon0: float,
    n: int,
    sum_squared: float,
    delta: float,
    delta2: float,
) -> float:
    return theorem_bound(
        protocol, epsilon0, n, delta, delta2, sum_squared=sum_squared
    ).epsilon


def minimum_central_epsilon(
    protocol: str,
    n: int,
    sum_squared: float,
    delta: float,
    delta2: Optional[float] = None,
) -> float:
    """The floor of achievable central ``eps`` (the ``eps0 -> 0`` limit).

    Targets below this are unreachable at any local budget — the
    Lemma 5.1 / collision-mass terms do not vanish with ``eps0``.
    """
    delta2 = delta if delta2 is None else delta2
    return _central_epsilon(protocol, _EPS0_LOW, n, sum_squared, delta, delta2)


def required_epsilon0(
    target_epsilon: float,
    protocol: str,
    n: int,
    sum_squared: float,
    delta: float,
    delta2: Optional[float] = None,
    *,
    tolerance: float = 1e-9,
) -> float:
    """Largest ``eps0`` whose central guarantee is ``<= target_epsilon``.

    Raises
    ------
    ValidationError
        If the target is below the achievable floor
        (:func:`minimum_central_epsilon`) or above the bracket ceiling.
    """
    check_epsilon(target_epsilon, "target_epsilon")
    check_positive_int(n, "n")
    check_delta(delta, "delta")
    delta2 = delta if delta2 is None else check_delta(delta2, "delta2")

    floor = minimum_central_epsilon(protocol, n, sum_squared, delta, delta2)
    if target_epsilon <= floor:
        raise ValidationError(
            f"target central eps {target_epsilon} is below the achievable "
            f"floor {floor:.4g} for n={n}, sum P^2={sum_squared:.3g} — "
            "grow the population or mix longer"
        )
    ceiling = _central_epsilon(
        protocol, _EPS0_HIGH, n, sum_squared, delta, delta2
    )
    if target_epsilon >= ceiling:
        return _EPS0_HIGH
    return binary_search_monotone(
        lambda eps0: _central_epsilon(
            protocol, eps0, n, sum_squared, delta, delta2
        ),
        target_epsilon,
        _EPS0_LOW,
        _EPS0_HIGH,
        increasing=True,
        tolerance=tolerance,
    )


def required_rounds(
    target_epsilon: float,
    protocol: str,
    epsilon0: float,
    n: int,
    stationary_collision: float,
    spectral_gap: float,
    delta: float,
    delta2: Optional[float] = None,
    *,
    max_rounds: int = 1_000_000,
) -> int:
    """Fewest rounds ``t`` whose Equation 7 bound meets the target.

    Raises
    ------
    ValidationError
        If even the stationary limit misses the target (then rounds
        cannot help — lower ``eps0`` instead), or ``max_rounds`` is hit.
    """
    check_epsilon(target_epsilon, "target_epsilon")
    check_epsilon(epsilon0, "epsilon0")
    delta2 = delta if delta2 is None else delta2

    limit = _central_epsilon(
        protocol, epsilon0, n, stationary_collision, delta, delta2
    )
    if limit > target_epsilon:
        raise ValidationError(
            f"even fully mixed, central eps = {limit:.4g} > target "
            f"{target_epsilon} at eps0={epsilon0} — reduce eps0"
        )

    def epsilon_at(t: int) -> float:
        collision = sum_squared_bound(stationary_collision, spectral_gap, t)
        return _central_epsilon(protocol, epsilon0, n, collision, delta, delta2)

    # Exponential search for an upper bracket, then bisect on integers.
    low, high = 0, 1
    while epsilon_at(high) > target_epsilon:
        low, high = high, high * 2
        if high > max_rounds:
            raise ValidationError(
                f"target not reachable within {max_rounds} rounds"
            )
    while high - low > 1:
        mid = (low + high) // 2
        if epsilon_at(mid) > target_epsilon:
            low = mid
        else:
            high = mid
    return high
