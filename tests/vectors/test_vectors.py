"""Replay every conformance vector against ``vectors.json``.

``run`` and ``bound`` cases replay on two exchanges: the per-message
oracle and the array engine's NumPy round.  Each ``run/*-all-*`` /
``run/*-single-*`` pair also replays as one two-point protocol sweep,
whose points share one walk.  This test never writes the file;
``python -m tests.vectors --regenerate`` does.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.scenario import Scenario, clear_graph_cache, sweep

from tests.vectors import load_vectors
from tests.vectors.cases import CASES
from tests.vectors.handlers import compute, digest, run_parts

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


#: ``run/{kind}-all-{lz}`` case id -> its ``run/{kind}-single-{lz}`` twin.
_PAIRS = {
    case_id: case_id.replace("-all-", "-single-")
    for case_id in sorted(CASES)
    if case_id.startswith("run/") and "-all-" in case_id
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("order", [("all", "single"), ("single", "all")])
@pytest.mark.parametrize("all_id", sorted(_PAIRS))
def test_protocol_pair_replays_as_one_sweep(all_id, order, kernel, on_oracle):
    single_id = _PAIRS[all_id]
    # The single case's inputs carry its dummy spec, which A_all ignores.
    base = Scenario(**CASES[single_id][1])
    clear_graph_cache()
    before = obs.snapshot()
    with on_oracle(kernel == "oracle"):
        swept = sweep(base, axis={"protocol": list(order)}, results="full")
    clear_graph_cache()
    assert obs.since(before).get("runner.walks_shared") == 1
    ids = {"all": all_id, "single": single_id}
    for point in swept:
        assert digest(run_parts(point.outcome)) == VECTORS[ids[point.scenario.protocol]]
