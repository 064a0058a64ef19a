"""Replay every conformance vector against ``vectors.json``.

``run`` and ``bound`` cases replay on two exchanges: the per-message
oracle and the array engine's NumPy round.  This test never writes the
file;
``python -m tests.vectors --regenerate`` does.
"""

from __future__ import annotations

import pytest

from tests.vectors import load_vectors
from tests.vectors.cases import CASES
from tests.vectors.handlers import compute

VECTORS = load_vectors()

KERNELS = ("oracle", "numpy")

_REPLAYS = [
    pytest.param(case_id, kernel, id=case_id if kernel is None else f"{case_id}@{kernel}")
    for case_id, (handler, _) in sorted(CASES.items())
    for kernel in (KERNELS if handler in ("run", "bound") else (None,))
]


def test_every_case_has_one_vector():
    assert sorted(VECTORS) == sorted(CASES)


@pytest.mark.parametrize("case_id, kernel", _REPLAYS)
def test_case_matches_vector(case_id, kernel, on_oracle):
    with on_oracle(kernel == "oracle"):
        assert compute(CASES[case_id]) == VECTORS[case_id]
