"""A small privacy accountant for repeated data collections.

Network shuffling, like any DP mechanism, composes across repeated runs
(e.g. a daily telemetry collection).  The accountant tracks spent
``(eps, delta)`` pairs and answers "what do I have left" under either
basic or heterogeneous advanced composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro.amplification.composition import (
    basic_composition,
    heterogeneous_advanced_composition,
)
from repro.exceptions import BudgetExceededError, ValidationError
from repro.utils.validation import check_delta, check_epsilon


@dataclass
class PrivacyAccountant:
    """Tracks cumulative privacy loss against a total budget.

    Parameters
    ----------
    epsilon_budget, delta_budget:
        The total central-DP budget.
    composition:
        ``"basic"`` (parameters add) or ``"advanced"`` (Kairouz-Oh-
        Viswanath across the recorded epsilons; spends an extra
        ``advanced_delta`` slack).
    advanced_delta:
        The composition-slack delta consumed by advanced composition.
    """

    epsilon_budget: float
    delta_budget: float
    composition: str = "basic"
    advanced_delta: float = 1e-9
    _spent: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon_budget, "epsilon_budget")
        check_delta(self.delta_budget, "delta_budget", allow_zero=True)
        if self.composition not in ("basic", "advanced"):
            raise ValidationError(
                f"composition must be 'basic' or 'advanced', "
                f"got {self.composition!r}"
            )

    @property
    def num_recorded(self) -> int:
        """Number of recorded mechanism invocations."""
        return len(self._spent)

    def spent(self) -> Tuple[float, float]:
        """Cumulative ``(eps, delta)`` under the configured composition."""
        if not self._spent:
            return (0.0, 0.0)
        epsilons = [eps for eps, _ in self._spent]
        deltas = [delta for _, delta in self._spent]
        if self.composition == "basic":
            return basic_composition(epsilons, deltas)
        eps = heterogeneous_advanced_composition(epsilons, self.advanced_delta)
        return (eps, sum(deltas) + self.advanced_delta)

    def remaining(self) -> Tuple[float, float]:
        """Budget minus spend (floored at zero)."""
        eps, delta = self.spent()
        return (
            max(0.0, self.epsilon_budget - eps),
            max(0.0, self.delta_budget - delta),
        )

    def can_afford(self, epsilon: float, delta: float) -> bool:
        """Whether recording ``(epsilon, delta)`` would stay in budget."""
        trial = replace(self, _spent=[*self._spent, (epsilon, delta)])
        eps, total_delta = trial.spent()
        return eps <= self.epsilon_budget and total_delta <= self.delta_budget

    def record(self, epsilon: float, delta: float) -> None:
        """Record one mechanism invocation, enforcing the budget."""
        check_epsilon(epsilon, allow_zero=True)
        check_delta(delta, allow_zero=True)
        if not self.can_afford(epsilon, delta):
            eps_spent, delta_spent = self.spent()
            raise BudgetExceededError(
                f"recording (eps={epsilon}, delta={delta}) exceeds budget: "
                f"spent ({eps_spent:.4f}, {delta_spent:.2e}) of "
                f"({self.epsilon_budget}, {self.delta_budget})"
            )
        self._spent.append((float(epsilon), float(delta)))
