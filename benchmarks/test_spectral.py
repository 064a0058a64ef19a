"""Spectral stage: ``spectral_summary`` on k=8 random-regular graphs.

Above the dense limit the spectral gap is one deflated Lanczos solve
(``eigsh(k=1, which="LM")`` with ``sqrt(pi)`` projected out).  These
time the whole summary — ergodicity check, stationary distribution,
solve, mixing time — at 10^4 and 5x10^4 nodes; the 10^4 graph is the
``run_cold`` perfbench workload's size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import random_regular_graph
from repro.graphs.spectral import spectral_summary

_DEGREE = 8


@pytest.mark.parametrize("num_nodes", [10_000, 50_000])
def test_bench_spectral_summary(benchmark, num_nodes):
    graph = random_regular_graph(_DEGREE, num_nodes, rng=0)
    summary = benchmark.pedantic(
        spectral_summary, args=(graph,), rounds=3, iterations=1
    )
    # A random k-regular graph is a near-Ramanujan expander:
    # max(a_2, |a_n|) ~= 2 sqrt(k-1) / k.
    ramanujan = 1.0 - 2.0 * np.sqrt(_DEGREE - 1) / _DEGREE
    assert summary.spectral_gap == pytest.approx(ramanujan, abs=0.02)
    assert summary.mixing_time == round(np.log(num_nodes) / summary.spectral_gap)
