"""Fixtures that pin which kernels the array exchange engine runs."""

from __future__ import annotations

import pytest

from repro.netsim import kernels
from repro.netsim.engine import VectorizedExchange

#: The numba-facing loops run as plain Python: the JIT code path,
#: testable on installs without the ``repro[compiled]`` extra.
INTERPRETED_KERNELS = (kernels._round_loop, kernels._rounds_loop)


@pytest.fixture
def use_kernels(monkeypatch):
    """``use_kernels(mode)`` points the engine's kernel resolution at
    ``"numpy"`` (its NumPy round) or ``"loops"`` (the JIT loops run
    interpreted); engines constructed afterwards pick it up, and the
    resolution state is restored after the test."""

    def use(mode: str) -> None:
        if mode == "numpy":
            monkeypatch.setitem(kernels._RESOLVED, "implementation", "numpy")
        elif mode == "loops":
            monkeypatch.setitem(kernels._RESOLVED, "implementation", "numba")
            monkeypatch.setitem(
                kernels._RESOLVED, "kernels", INTERPRETED_KERNELS
            )
        else:
            raise ValueError(f"unknown kernel mode {mode!r}")

    return use


@pytest.fixture
def engine_on(use_kernels):
    """``engine_on(mode, graph, **kwargs)`` builds an array engine on the
    ``"numpy"`` or ``"loops"`` kernels."""

    def build(mode, graph, **kwargs):
        use_kernels(mode)
        return VectorizedExchange(graph, **kwargs)

    return build
