"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure, prints it (run with
``-s`` to see the ASCII artifact), and asserts the paper's qualitative
*shapes* — who wins, trend directions, crossovers — not absolute
numbers (README.md, "Substitutions", explains the stand-in graphs).
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import pytest

from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """One shared experiment configuration for all benchmarks."""
    return ExperimentConfig(delta=1e-6, delta2=1e-6, seed=0)


class MemoryWatch:
    """Allocation high-water (bytes) observed inside one watched block."""

    def __init__(self) -> None:
        self.peak_bytes = 0

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / (1024 * 1024)


@pytest.fixture
def memory_watch():
    """Tracemalloc-based peak-allocation recorder for memory benches.

    Usage::

        with memory_watch() as watch:
            expensive_computation()
        assert watch.peak_bytes < BUDGET

    NumPy registers its buffer allocator with tracemalloc, so panels,
    sparse products, and transition CSRs are all counted.  The peak is
    measured relative to the start of the block (``reset_peak``), so
    interpreter baseline and fixtures built beforehand are excluded.
    """

    @contextmanager
    def watch():
        record = MemoryWatch()
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            yield record
        finally:
            _, record.peak_bytes = tracemalloc.get_traced_memory()
            if started_here:
                tracemalloc.stop()

    return watch
