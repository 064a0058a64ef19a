"""Multi-collection campaigns: repeated network shuffling under a budget.

A deployment rarely collects once: telemetry repeats daily, federated
training for many epochs.  :class:`Campaign` runs a
:class:`~repro.core.shuffler.NetworkShuffler` repeatedly, records each
collection's central guarantee into a
:class:`~repro.core.accounting.PrivacyAccountant`, and stops before the
budget would be breached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence

from repro.core.accounting import PrivacyAccountant
from repro.core.shuffler import NetworkShuffler
from repro.ldp.base import LocalRandomizer
from repro.protocols.reports import ProtocolResult
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class CollectionRecord:
    """One completed collection round."""

    index: int
    epsilon: float
    delta: float
    result: ProtocolResult


@dataclass
class CampaignSummary:
    """Outcome of a campaign run."""

    collections: List[CollectionRecord] = field(default_factory=list)
    stopped_reason: str = ""

    @property
    def num_collections(self) -> int:
        """Completed collection count."""
        return len(self.collections)


class Campaign:
    """Run repeated collections until done or out of budget.

    Parameters
    ----------
    shuffler:
        The configured deployment (graph, protocol, rounds, eps0).
    accountant:
        The budget tracker; ``composition="advanced"`` is the natural
        choice for many repeats.
    """

    def __init__(self, shuffler: NetworkShuffler, accountant: PrivacyAccountant):
        self.shuffler = shuffler
        self.accountant = accountant
        self._guarantee = shuffler.central_guarantee()

    @property
    def per_collection_guarantee(self) -> tuple[float, float]:
        """``(eps, delta)`` charged per collection."""
        return (self._guarantee.epsilon, self._guarantee.delta)

    def affordable_collections(self, limit: int = 10_000) -> int:
        """How many more collections fit in the remaining budget."""
        trial = replace(self.accountant, _spent=list(self.accountant._spent))
        count = 0
        eps, delta = self.per_collection_guarantee
        while count < limit and trial.can_afford(eps, delta):
            trial.record(eps, delta)
            count += 1
        return count

    def run(
        self,
        value_source: Callable[[int, Any], Sequence[Any]],
        randomizer: Optional[LocalRandomizer] = None,
        *,
        max_collections: int = 100,
        rng: RngLike = None,
    ) -> CampaignSummary:
        """Collect repeatedly until ``max_collections`` or budget end.

        ``value_source(index, rng)`` supplies the population's values
        for collection ``index`` (data can drift between rounds).
        """
        generator = ensure_rng(rng)
        summary = CampaignSummary()
        eps, delta = self.per_collection_guarantee
        for index in range(max_collections):
            if not self.accountant.can_afford(eps, delta):
                summary.stopped_reason = "budget exhausted"
                return summary
            values = value_source(index, generator)
            result = self.shuffler.run(values, randomizer, rng=generator)
            self.accountant.record(eps, delta)
            summary.collections.append(
                CollectionRecord(
                    index=index, epsilon=eps, delta=delta, result=result
                )
            )
        summary.stopped_reason = "max collections reached"
        return summary
