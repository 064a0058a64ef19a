"""Network shuffling privacy bounds — Theorems 5.3-5.6, Lemma 5.1, Thm 6.1.

Every theorem consumes the same two ingredients:

* the *collision mass* ``S = sum_i P_i(t)^2`` of the report-position
  distribution after ``t`` exchange rounds — computed exactly by the
  walk engine or upper-bounded by Equation 7:
  ``S <= sum_i pi_i^2 + (1 - alpha)^{2t}``;
* the local budget ``eps0`` of the randomizer.

The structure of every bound is the quadratic-plus-root form produced by
heterogeneous advanced composition:

    eps = A^2 x^2 / 2 + A x sqrt(2 log(1/delta)),

with amplification factor ``A`` and effective load ``x``:

=====================  =======================  ==========================
theorem                A                        x
=====================  =======================  ==========================
5.3  (all/stationary)  (e^{eps0}-1) e^{2 eps0}  eps1(S, n, delta2)
5.4  (all/symmetric)   (e^{eps0}-1) e^{2 eps0}  eps1(rho*^2 S, n, delta2)
5.5  (single/stat.)    (e^{eps0}-1) e^{eps0}    sqrt(S)
5.6  (single/symm.)    (e^{eps0}-1) e^{eps0}    sqrt(S)  (exact P)
=====================  =======================  ==========================

with ``eps1 = sqrt((1 - 1/n) S) + sqrt(log(1/delta2)/n)`` (Lemma 5.1's
high-probability bound on ``||L||_2 / n``).

The ``(eps0, delta0)`` approximate-DP variants replace ``eps0 -> 8 eps0``
(Lemma 5.2's clone randomizer) and pay ``delta' = delta + delta2 +
n (e^{eps'} + 1) delta1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.amplification.composition import heterogeneous_advanced_composition
from repro.exceptions import ValidationError
from repro.utils.validation import (
    check_delta,
    check_epsilon,
    check_positive_int,
    check_probability,
)

#: Lemma 5.2 blows the local budget up by this factor when converting an
#: approximate-DP randomizer into a pure-DP "clone".
_CLONE_FACTOR = 8.0


# ----------------------------------------------------------------------
# Shared ingredients
# ----------------------------------------------------------------------
def sum_squared_bound(
    stationary_collision: float,
    spectral_gap: float,
    steps: int,
    laziness: float = 0.0,
) -> float:
    """Equation 7: ``sum_i P_i(t)^2 <= sum_i pi_i^2 + (1 - alpha)^{2t}``.

    A lazy walk ``p I + (1 - p) M`` keeps the stationary distribution
    but shrinks the gap; ``(1 - p) alpha`` lower-bounds the lazy gap at
    both eigenvalue edges, so the decay uses it (conservative: never
    understates the collision mass).  At ``laziness = 1`` nothing moves
    and the bound is 1.
    """
    if not 0.0 < stationary_collision <= 1.0:
        raise ValidationError(
            f"stationary collision must lie in (0, 1], got {stationary_collision}"
        )
    if not 0.0 < spectral_gap <= 1.0:
        raise ValidationError(
            f"spectral gap must lie in (0, 1], got {spectral_gap}"
        )
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    check_probability(laziness, "laziness")
    lazy_gap = (1.0 - laziness) * spectral_gap
    return min(1.0, stationary_collision + (1.0 - lazy_gap) ** (2 * steps))


def report_load_l2_bound(n: int, sum_squared: float, delta2: float) -> float:
    """Lemma 5.1: w.p. ``>= 1 - delta2``,

        ||L||_2 <= sqrt((n^2 - n) sum_i P_i^2) + sqrt(n log(1/delta2)).
    """
    check_positive_int(n, "n")
    check_delta(delta2, "delta2")
    _check_sum_squared(sum_squared, n)
    return math.sqrt((n * n - n) * sum_squared) + math.sqrt(n * math.log(1.0 / delta2))


def epsilon_one(n: int, sum_squared: float, delta2: float) -> float:
    """The ``eps1`` of Theorems 5.3/5.4: ``||L||_2 / n`` bound,

        eps1 = sqrt((1 - 1/n) sum_i P_i^2) + sqrt(log(1/delta2) / n).
    """
    check_positive_int(n, "n")
    check_delta(delta2, "delta2")
    _check_sum_squared(sum_squared, n)
    return math.sqrt((1.0 - 1.0 / n) * sum_squared) + math.sqrt(
        math.log(1.0 / delta2) / n
    )


def _check_sum_squared(sum_squared: float, n: int) -> None:
    if not 1.0 / n - 1e-12 <= sum_squared <= 1.0 + 1e-12:
        raise ValidationError(
            f"sum of squared positions must lie in [1/n, 1] = "
            f"[{1.0 / n:.3g}, 1]; got {sum_squared}"
        )


def _quadratic_root_bound(amplification: float, load: float, delta: float) -> float:
    """``A^2 x^2 / 2 + A x sqrt(2 log(1/delta))`` — the common bound shape."""
    root = amplification * load
    return 0.5 * root * root + root * math.sqrt(2.0 * math.log(1.0 / delta))


@dataclass(frozen=True)
class NetworkShuffleBound:
    """An amplified central-DP guarantee with its provenance."""

    epsilon: float
    delta: float
    theorem: str
    epsilon0: float
    sum_squared: float
    n: int
    #: How ``sum_squared`` was computed, when the accounting layer has
    #: something to say (schedule accounting reports its strategy,
    #: block geometry, and — in truncation mode — the provable additive
    #: bound on the collision mass the dropped tails could hide).
    #: ``None`` for closed-form/static bounds.
    accounting: Optional[Mapping[str, Any]] = None

    @property
    def amplification_ratio(self) -> float:
        """``eps0 / eps`` — how much the central guarantee improved."""
        if self.epsilon == 0.0:
            return math.inf
        return self.epsilon0 / self.epsilon

    @property
    def amplified(self) -> bool:
        """Whether the bound actually improves on the local guarantee."""
        return self.epsilon < self.epsilon0


# ----------------------------------------------------------------------
# Theorem 5.3 — "All" protocol, stationary distribution
# ----------------------------------------------------------------------
def epsilon_all_stationary(
    epsilon0: float,
    n: int,
    sum_squared: float,
    delta: float,
    delta2: Optional[float] = None,
    *,
    delta0: float = 0.0,
    delta1: Optional[float] = None,
) -> NetworkShuffleBound:
    """Theorem 5.3: central DP of ``A_all`` on an ergodic graph.

    Parameters
    ----------
    epsilon0:
        Local randomizer budget ``eps0``.
    n:
        Number of users.
    sum_squared:
        ``sum_i P_i(t)^2`` — exact, or the Equation 7 bound
        (:func:`sum_squared_bound`).
    delta:
        Composition failure probability.
    delta2:
        Lemma 5.1 failure probability; defaults to ``delta``.
    delta0, delta1:
        For an *approximate*-DP local randomizer: its ``delta0``, and
        the clone-approximation parameter ``delta1`` of Lemma 5.2.
        ``delta0 = 0`` selects the pure-DP statement.

    Returns
    -------
    NetworkShuffleBound
        ``(eps, delta + delta2)``-DP for the pure case; the approximate
        case additionally pays ``n (e^{eps'} + 1) delta1``.
    """
    epsilon0 = check_epsilon(epsilon0, "epsilon0")
    check_delta(delta, "delta")
    delta2 = delta if delta2 is None else check_delta(delta2, "delta2")
    load = epsilon_one(n, sum_squared, delta2)

    if delta0 == 0.0:
        amplification = math.expm1(epsilon0) * math.exp(2.0 * epsilon0)
        eps = _quadratic_root_bound(amplification, load, delta)
        return NetworkShuffleBound(
            epsilon=eps,
            delta=delta + delta2,
            theorem="5.3 (all, stationary)",
            epsilon0=epsilon0,
            sum_squared=sum_squared,
            n=n,
        )
    return _approximate_variant(
        epsilon0, n, sum_squared, delta, delta2, delta0, delta1,
        load=load, theorem="5.3 (all, stationary, approx)",
    )


# ----------------------------------------------------------------------
# Theorem 5.4 — "All" protocol, symmetric distribution
# ----------------------------------------------------------------------
def epsilon_all_symmetric(
    epsilon0: float,
    n: int,
    position_distribution: np.ndarray,
    delta: float,
    delta2: Optional[float] = None,
    *,
    delta0: float = 0.0,
    delta1: Optional[float] = None,
) -> NetworkShuffleBound:
    """Theorem 5.4: central DP of ``A_all`` on a k-regular graph with the
    *exact* per-user position distribution ``P^G(t)``.

    ``rho*`` is the ratio of the largest ``P_i`` to the smallest
    *non-zero* ``P_i``; it scales the effective collision mass.
    """
    epsilon0 = check_epsilon(epsilon0, "epsilon0")
    check_delta(delta, "delta")
    delta2 = delta if delta2 is None else check_delta(delta2, "delta2")
    check_positive_int(n, "n")
    distribution = np.asarray(position_distribution, dtype=np.float64)
    if distribution.ndim != 1 or distribution.size != n:
        raise ValidationError(
            f"position_distribution must be a length-{n} vector"
        )
    sum_squared = float(np.dot(distribution, distribution))
    nonzero = distribution[distribution > 0.0]
    if nonzero.size == 0:
        raise ValidationError("position distribution is identically zero")
    rho_star = float(nonzero.max() / nonzero.min())
    effective = min(1.0, rho_star * rho_star * sum_squared)
    load = epsilon_one(n, max(effective, 1.0 / n), delta2)

    if delta0 == 0.0:
        amplification = math.expm1(epsilon0) * math.exp(2.0 * epsilon0)
        eps = _quadratic_root_bound(amplification, load, delta)
        return NetworkShuffleBound(
            epsilon=eps,
            delta=delta + delta2,
            theorem="5.4 (all, symmetric)",
            epsilon0=epsilon0,
            sum_squared=sum_squared,
            n=n,
        )
    return _approximate_variant(
        epsilon0, n, sum_squared, delta, delta2, delta0, delta1,
        load=load, theorem="5.4 (all, symmetric, approx)",
    )


# ----------------------------------------------------------------------
# Theorems 5.5 / 5.6 — "Single" protocol
# ----------------------------------------------------------------------
def epsilon_single_stationary(
    epsilon0: float,
    n: int,
    sum_squared: float,
    delta: float,
    *,
    delta0: float = 0.0,
    delta1: Optional[float] = None,
    delta2: float = 0.0,
) -> NetworkShuffleBound:
    """Theorem 5.5: central DP of ``A_single`` on an ergodic graph,

        eps = e^{2 eps0}(e^{eps0}-1)^2 S / 2
              + e^{eps0}(e^{eps0}-1) sqrt(2 log(1/delta) S).

    ``S`` is ``sum_i P_i(t)^2`` (exact or Equation 7 bound).
    """
    epsilon0 = check_epsilon(epsilon0, "epsilon0")
    check_delta(delta, "delta")
    check_positive_int(n, "n")
    _check_sum_squared(sum_squared, n)

    if delta0 == 0.0:
        amplification = math.expm1(epsilon0) * math.exp(epsilon0)
        eps = _quadratic_root_bound(amplification, math.sqrt(sum_squared), delta)
        return NetworkShuffleBound(
            epsilon=eps,
            delta=delta,
            theorem="5.5 (single, stationary)",
            epsilon0=epsilon0,
            sum_squared=sum_squared,
            n=n,
        )
    # Approximate-DP variant: eps0 -> 8 eps0 via the Lemma 5.2 clone.
    if delta1 is None:
        delta1 = delta / (2.0 * n)
    _require_clone_condition(epsilon0, delta0, delta1)
    clone_eps0 = _CLONE_FACTOR * epsilon0
    amplification = math.expm1(clone_eps0) * math.exp(clone_eps0)
    eps = _quadratic_root_bound(amplification, math.sqrt(sum_squared), delta)
    delta_prime = delta + delta2 + n * (math.exp(min(eps, 700.0)) + 1.0) * delta1
    return NetworkShuffleBound(
        epsilon=eps,
        delta=delta_prime,
        theorem="5.5 (single, stationary, approx)",
        epsilon0=epsilon0,
        sum_squared=sum_squared,
        n=n,
    )


def epsilon_single_symmetric(
    epsilon0: float,
    n: int,
    position_distribution: np.ndarray,
    delta: float,
    *,
    delta0: float = 0.0,
    delta1: Optional[float] = None,
    delta2: float = 0.0,
) -> NetworkShuffleBound:
    """Theorem 5.6: Theorem 5.5 evaluated at the *exact* position
    distribution of a user on a k-regular graph.  ``delta2`` enters the
    approximate-DP ``delta'`` sum only, like Theorem 5.5's."""
    distribution = np.asarray(position_distribution, dtype=np.float64)
    if distribution.ndim != 1 or distribution.size != n:
        raise ValidationError(
            f"position_distribution must be a length-{n} vector"
        )
    sum_squared = float(np.dot(distribution, distribution))
    bound = epsilon_single_stationary(
        epsilon0, n, sum_squared, delta,
        delta0=delta0, delta1=delta1, delta2=delta2,
    )
    theorem = bound.theorem.replace("5.5", "5.6").replace("stationary", "symmetric")
    return NetworkShuffleBound(
        epsilon=bound.epsilon,
        delta=bound.delta,
        theorem=theorem,
        epsilon0=bound.epsilon0,
        sum_squared=sum_squared,
        n=n,
    )


def theorem_bound(
    protocol: str,
    epsilon0: float,
    n: int,
    delta: float,
    delta2: float,
    *,
    sum_squared: Optional[float] = None,
    distribution: Optional[np.ndarray] = None,
    delta0: float = 0.0,
) -> NetworkShuffleBound:
    """The one dispatch to Theorems 5.3-5.6.

    ``protocol`` (``"all"`` or ``"single"``) picks the algorithm; passing
    the exact position ``distribution`` selects the symmetric analysis
    (5.4/5.6), a collision mass ``sum_squared`` the stationary one
    (5.3/5.5).  ``delta2`` reaches the ``A_single`` theorems only on
    their approximate-DP path, the one place they consume it.
    """
    symmetric = distribution is not None
    mass = distribution if symmetric else sum_squared
    if protocol == "all":
        theorem = epsilon_all_symmetric if symmetric else epsilon_all_stationary
        return theorem(epsilon0, n, mass, delta, delta2, delta0=delta0)
    if protocol == "single":
        theorem = epsilon_single_symmetric if symmetric else epsilon_single_stationary
        return theorem(epsilon0, n, mass, delta, delta0=delta0, delta2=delta2)
    raise ValidationError(f"unknown protocol {protocol!r}")


# ----------------------------------------------------------------------
# Approximate-DP plumbing (Lemma 5.2)
# ----------------------------------------------------------------------
def max_delta0_for_clone(epsilon0: float, delta1: float) -> float:
    """Lemma 5.2's admissibility threshold on the randomizer's ``delta0``:

        delta0 <= (1 - e^{-eps0}) delta1
                  / (4 e^{eps0} (2 + ln(2/delta1) / ln(1/(1 - e^{-5 eps0})))).
    """
    epsilon0 = check_epsilon(epsilon0, "epsilon0")
    check_delta(delta1, "delta1")
    numerator = -math.expm1(-epsilon0) * delta1
    log_term = math.log(2.0 / delta1) / -math.log(-math.expm1(-5.0 * epsilon0))
    denominator = 4.0 * math.exp(epsilon0) * (2.0 + log_term)
    return numerator / denominator


def _require_clone_condition(epsilon0: float, delta0: float, delta1: float) -> None:
    limit = max_delta0_for_clone(epsilon0, delta1)
    if delta0 > limit:
        raise ValidationError(
            f"delta0={delta0:.3g} exceeds the Lemma 5.2 admissible bound "
            f"{limit:.3g} for eps0={epsilon0}, delta1={delta1:.3g}"
        )


def _approximate_variant(
    epsilon0: float,
    n: int,
    sum_squared: float,
    delta: float,
    delta2: float,
    delta0: float,
    delta1: Optional[float],
    *,
    load: float,
    theorem: str,
) -> NetworkShuffleBound:
    """Shared approximate-DP lifting for the ``A_all`` theorems."""
    if delta1 is None:
        delta1 = delta / (2.0 * n)
    _require_clone_condition(epsilon0, delta0, delta1)
    clone_eps0 = _CLONE_FACTOR * epsilon0
    amplification = math.expm1(clone_eps0) * math.exp(2.0 * clone_eps0)
    eps = _quadratic_root_bound(amplification, load, delta)
    delta_prime = delta + delta2 + n * (math.exp(min(eps, 700.0)) + 1.0) * delta1
    return NetworkShuffleBound(
        epsilon=eps,
        delta=delta_prime,
        theorem=theorem,
        epsilon0=epsilon0,
        sum_squared=sum_squared,
        n=n,
    )


# ----------------------------------------------------------------------
# Theorem 6.1 — accounting from a realized allocation vector
# ----------------------------------------------------------------------
def epsilon_from_report_sizes(
    epsilon0: float,
    report_sizes: Sequence[int],
    delta: float,
) -> float:
    """Theorem 6.1 inner accounting: given realized report sizes
    ``l_1 .. l_n`` (``sum l_i = n``), each per-output mechanism is
    ``eps_i``-DP with

        eps_i = log(1 + e^{2 eps0}(e^{eps0} - 1) l_i / n),

    and the total follows from heterogeneous advanced composition.

    This is the *empirical* accountant: feed it the allocation vector
    ``L`` measured by a protocol simulation and compare against the
    closed-form Lemma 5.1 route (the bound-tightness ablation).
    """
    epsilon0 = check_epsilon(epsilon0, "epsilon0")
    check_delta(delta, "delta")
    sizes = np.asarray(list(report_sizes), dtype=np.float64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValidationError("report_sizes must be a non-empty 1-D sequence")
    if np.any(sizes < 0):
        raise ValidationError("report sizes must be non-negative")
    n = sizes.size
    if abs(sizes.sum() - n) > 1e-9:
        raise ValidationError(
            f"report sizes must sum to n={n} (one report per user), "
            f"got {sizes.sum()}"
        )
    factor = math.exp(2.0 * epsilon0) * math.expm1(epsilon0) / n
    per_output = np.log1p(factor * sizes)
    return heterogeneous_advanced_composition(per_output, delta)
