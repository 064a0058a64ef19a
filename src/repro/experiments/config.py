"""Shared experiment configuration.

The canonical definition lives in :mod:`repro.config` (the
accounting defaults are read by library layers below the experiment
drivers); this module re-exports it under the historical name every
experiment imports.
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG, ExperimentConfig

__all__ = ["DEFAULT_CONFIG", "ExperimentConfig"]
