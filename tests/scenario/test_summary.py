"""The one run summary: ``RunDigest.summary()``.

A :class:`RunDigest` is the record of a run; ``RunResult.summary()``
is the summary of its :func:`digest_run`, and the store keeps digests.
These tests pin the presence rules and the key order on the record
itself, and that the full result, the digest and a stored digest all
render the same summary.
"""

from __future__ import annotations

import json

import pytest

from repro.scenario import RunDigest, Scenario, clear_graph_cache, digest_run, run
from repro.store import outcome_from_payload, outcome_payload


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def _scenario(**overrides) -> Scenario:
    payload = {
        "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
        "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
        "rounds": 4,
        "seed": 11,
    }
    payload.update(overrides)
    return Scenario.from_dict(payload)


def _schedule_scenario() -> Scenario:
    return _scenario(graph={
        "kind": "schedule",
        "params": {
            "graphs": [
                {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
                {"kind": "k_regular", "params": {"degree": 6, "num_nodes": 64}},
            ],
            "selector": "epoch",
            "block": 2,
        },
    }, rounds=6)


def _digest(**fields) -> RunDigest:
    scalars = dict(
        protocol="all", engine="fast", num_users=10, rounds=2,
        dummy_count=0, elapsed_seconds=0.5,
    )
    return RunDigest(**{**scalars, **fields})


class TestSchemaEquality:
    def test_digest_summary_equals_result_summary(self):
        result = run(_scenario())
        assert digest_run(result).summary() == result.summary()

    def test_single_protocol_case(self):
        # A_single has no Theorem 6.1 estimate: empirical_epsilon is
        # absent, not present-as-None.
        result = run(_scenario(protocol="single"))
        summary = result.summary()
        assert "empirical_epsilon" not in summary
        assert digest_run(result).summary() == summary

    def test_simulation_only_case(self):
        # No mechanism -> no central bound -> the accounting quartet is
        # absent together.
        result = run(_scenario(mechanism=None))
        summary = result.summary()
        for key in ("central_epsilon", "central_delta", "theorem", "epsilon0"):
            assert key not in summary
        assert digest_run(result).summary() == summary

    def test_schedule_accounted_case(self):
        result = run(_schedule_scenario())
        summary = result.summary()
        assert summary["schedule_accounting"]["strategy"] in ("dense", "blocked")
        assert digest_run(result).summary() == summary

    def test_key_order_is_canonical(self):
        result = run(_scenario())
        assert list(result.summary()) == [
            "protocol", "engine", "backend", "num_users", "rounds",
            "dummy_count", "elapsed_seconds", "central_epsilon",
            "central_delta", "theorem", "epsilon0", "empirical_epsilon",
            "total_messages_sent", "max_peak_items",
        ]
        assert list(result.summary()) == list(digest_run(result).summary())


class TestStoredDigest:
    def test_schedule_accounting_survives_the_store(self):
        digest = digest_run(run(_schedule_scenario()))
        stored = json.loads(json.dumps(outcome_payload(digest)))
        assert outcome_from_payload("run", stored).summary() == digest.summary()

    def test_stored_payload_is_the_record(self):
        digest = digest_run(run(_scenario()))
        assert "max_messages_sent" not in outcome_payload(digest)


class TestPresenceRules:
    def test_execution_scalars_always_present(self):
        payload = _digest().summary()
        assert list(payload) == [
            "protocol", "engine", "backend", "num_users", "rounds",
            "dummy_count", "elapsed_seconds",
        ]
        assert payload["backend"] == "vectorized"

    def test_accounting_quartet_travels_together(self):
        payload = _digest(
            central_epsilon=1.0, central_delta=1e-6, theorem="5.3",
            epsilon0=2.0,
        ).summary()
        assert [k for k in payload if k.startswith(("central", "theorem", "eps"))] == [
            "central_epsilon", "central_delta", "theorem", "epsilon0",
        ]

    def test_meter_pair_travels_together(self):
        payload = _digest(total_messages_sent=100, max_peak_items=7).summary()
        assert payload["total_messages_sent"] == 100
        assert payload["max_peak_items"] == 7

    def test_schedule_accounting_comes_last(self):
        payload = _digest(
            central_epsilon=1.0, central_delta=1e-6, theorem="5.3",
            epsilon0=2.0, total_messages_sent=100, max_peak_items=7,
            schedule_accounting={"strategy": "dense"},
        ).summary()
        assert list(payload)[-3:] == [
            "total_messages_sent", "max_peak_items", "schedule_accounting",
        ]
        assert payload["schedule_accounting"] == {"strategy": "dense"}

    def test_elapsed_is_rounded(self):
        payload = _digest(elapsed_seconds=0.123456789).summary()
        assert payload["elapsed_seconds"] == 0.123457
