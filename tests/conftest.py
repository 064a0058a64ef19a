"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
)
from repro.graphs.graph import Graph


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for the test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_regular() -> Graph:
    """A small ergodic 4-regular graph."""
    return random_regular_graph(4, 50, rng=7)


@pytest.fixture
def medium_regular() -> Graph:
    """A medium 8-regular graph for walk statistics."""
    return random_regular_graph(8, 400, rng=7)


@pytest.fixture
def triangle() -> Graph:
    """The smallest ergodic graph (odd cycle)."""
    return cycle_graph(3)


@pytest.fixture
def k4() -> Graph:
    """Complete graph on four nodes."""
    return complete_graph(4)


@pytest.fixture
def stalled_lanczos(monkeypatch):
    """Make every ARPACK solve raise ``ArpackNoConvergence``.

    Yields a scenario past the dense-eigensolver limit, so pricing it
    needs the stalled sparse solve.  The graph cache is cleared around
    the test so no summary leaks between tests.
    """
    from repro.graphs import spectral
    from repro.scenario import clear_graph_cache

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    clear_graph_cache()
    monkeypatch.setattr(spectral.spla, "eigsh", stalled)
    yield {
        "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 1600}},
        "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
        "rounds": 4,
        "seed": 5,
    }
    clear_graph_cache()
