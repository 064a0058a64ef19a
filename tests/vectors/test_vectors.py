"""Replay every conformance vector against ``vectors.json``.

``run`` and ``bound`` cases replay on three exchanges: the per-message
oracle, the array engine's NumPy round and its JIT loops run as plain
Python; where numba is installed, a fourth replay runs the compiled
kernels.  This test never writes the file;
``python -m tests.vectors --regenerate`` does.
"""

from __future__ import annotations

import pytest

from repro.netsim.kernels import NUMBA_AVAILABLE
from tests.vectors import load_vectors
from tests.vectors.cases import CASES
from tests.vectors.handlers import compute

VECTORS = load_vectors()

KERNELS = ("oracle", "numpy", "loops") + (("jit",) if NUMBA_AVAILABLE else ())

_REPLAYS = [
    pytest.param(case_id, kernel, id=case_id if kernel is None else f"{case_id}@{kernel}")
    for case_id, (handler, _) in sorted(CASES.items())
    for kernel in (KERNELS if handler in ("run", "bound") else (None,))
]


def test_every_case_has_one_vector():
    assert sorted(VECTORS) == sorted(CASES)


@pytest.mark.parametrize("case_id, kernel", _REPLAYS)
def test_case_matches_vector(case_id, kernel, on_oracle, use_kernels):
    if kernel in ("numpy", "loops"):
        use_kernels(kernel)
    with on_oracle(kernel == "oracle"):
        assert compute(CASES[case_id]) == VECTORS[case_id]
