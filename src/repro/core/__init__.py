"""Caller-built graphs and budgets: the shuffler view, campaigns, accounting.

:class:`~repro.core.shuffler.NetworkShuffler` is :func:`repro.run` /
:func:`repro.bound` for a graph the caller already holds: it wraps the
graph in a bundle and drives the scenario runner with it.
:class:`~repro.core.campaign.Campaign` and
:class:`~repro.core.accounting.PrivacyAccountant` compose its guarantee
across repeated collections.

    >>> from repro.core import NetworkShuffler
    >>> from repro.graphs import random_regular_graph
    >>> shuffler = NetworkShuffler(random_regular_graph(8, 1000, rng=0),
    ...                            epsilon0=1.0, delta=1e-6)
    >>> guarantee = shuffler.central_guarantee()       # Theorem 5.3 bound
    >>> result = shuffler.run(values, randomizer)      # simulate A_all
"""

from repro.core.accounting import PrivacyAccountant
from repro.core.campaign import Campaign, CampaignSummary, CollectionRecord
from repro.config import DEFAULT_CONFIG, ExperimentConfig
from repro.core.shuffler import NetworkShuffler

__all__ = [
    "PrivacyAccountant",
    "Campaign",
    "CampaignSummary",
    "CollectionRecord",
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "NetworkShuffler",
]
