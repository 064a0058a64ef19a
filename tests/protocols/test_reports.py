"""Tests for Report / ProtocolResult containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.protocols.reports import ProtocolResult, Report


def _result(reports, protocol="all", num_users=None):
    n = num_users if num_users is not None else len(reports)
    return ProtocolResult(
        protocol=protocol,
        num_users=n,
        rounds=3,
        origins=np.array([report.origin for report in reports], dtype=np.int64),
        delivered_payloads=np.array([report.payload for report in reports], dtype=object),
        delivered_by=np.arange(len(reports)),
        allocation=np.ones(n, dtype=np.int64),
    )


class TestReport:
    def test_regular_report(self):
        report = Report(origin=3, payload="x")
        assert not report.is_dummy
        assert report.payload == "x"

    def test_dummy_marker(self):
        assert Report(origin=-1, payload=None).is_dummy

    def test_frozen(self):
        report = Report(origin=0, payload=1)
        with pytest.raises(Exception):
            report.origin = 5  # type: ignore[misc]


class TestProtocolResult:
    def test_real_reports_filters_dummies(self):
        reports = [Report(0, "a"), Report(-1, "d"), Report(1, "b")]
        result = _result(reports, num_users=3)
        assert len(result.real_reports) == 2

    def test_payloads_with_and_without_dummies(self):
        reports = [Report(0, "a"), Report(-1, "d")]
        result = _result(reports, num_users=2)
        assert result.payloads() == ["a", "d"]
        assert result.payloads(include_dummies=False) == ["a"]

    def test_conservation_check_all(self):
        result = _result([Report(i, i) for i in range(4)])
        assert result.check_conservation()

    def test_conservation_check_fails_on_loss(self):
        result = _result([Report(0, 0)], num_users=3)
        assert not result.check_conservation()

    def test_conservation_vacuous_for_single(self):
        result = _result([Report(0, 0)], protocol="single", num_users=3)
        assert result.check_conservation()

    def test_adversary_view_fields(self):
        reports = [Report(1, "a"), Report(0, "b")]
        result = _result(reports, num_users=2)
        view = result.adversary_view()
        np.testing.assert_array_equal(view.origin, [1, 0])
        np.testing.assert_array_equal(view.final_holder, [0, 1])
        assert view.num_users == 2

    def test_adversary_linkage_shape_mismatch(self):
        view = _result([Report(0, "a")], num_users=1).adversary_view()
        with pytest.raises(ValueError) as caught:
            view.linkage_accuracy(np.array([0, 1]))
        assert type(caught.value) is ValidationError
