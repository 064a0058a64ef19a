"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

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


@pytest.fixture(scope="session")
def on_oracle():
    """``with on_oracle(): ...`` exchanges every protocol run started in
    the block on the per-message oracle
    (:class:`repro.testing.oracle.FaithfulNetwork`) instead of the array
    engine — ``run_all_protocol``/``run_single_protocol`` and everything
    above them (``repro.run``, the shuffler).  A test runs a seed once
    outside the block and once inside to compare the two exchanges;
    ``on_oracle(False)`` is a no-op block, for parametrized tests."""
    from repro.protocols import all_protocol, single_protocol
    from repro.testing.oracle import FaithfulNetwork

    def network(graph, *, backend, **kwargs):
        assert backend == "vectorized"
        return FaithfulNetwork(graph, **kwargs)

    @contextlib.contextmanager
    def routed(active: bool = True):
        with pytest.MonkeyPatch.context() as patch:
            if active:
                for module in (all_protocol, single_protocol):
                    patch.setattr(module, "RoundBasedNetwork", network)
            yield

    return routed


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
