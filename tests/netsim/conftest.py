"""Fixtures that build the array exchange engine on chosen kernels."""

from __future__ import annotations

import pytest

from repro.netsim.engine import VectorizedExchange


@pytest.fixture
def engine_on(use_kernels):
    """``engine_on(mode, graph, **kwargs)`` builds an array engine on the
    ``"numpy"`` or ``"loops"`` kernels."""

    def build(mode, graph, **kwargs):
        use_kernels(mode)
        return VectorizedExchange(graph, **kwargs)

    return build
