"""Shared accounting configuration.

The paper does not print its ``delta`` choices in the figures; we fix
``delta = delta2 = 1e-6`` throughout (comfortably below ``1/n`` for all
evaluated graphs, the paper's stated requirement) and record that choice
here so every layer — scenarios, experiments, auditing, the CLI —
agrees.  It imports nothing from the package, so any layer may read it;
``repro.experiments.config`` re-exports it for the experiment drivers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    delta: float = 1e-6
    """Central composition failure probability."""
    delta2: float = 1e-6
    """Lemma 5.1 (report-load concentration) failure probability."""
    seed: int = 0
    """Base seed; experiments derive child streams from it."""
    dataset_scale: float = 1.0
    """Scale factor applied to materialized datasets (Google uses its
    own smaller default regardless)."""


DEFAULT_CONFIG = ExperimentConfig()
