"""Tests for the privacy accountant."""

from __future__ import annotations

import pytest

from repro.core.accounting import PrivacyAccountant
from repro.exceptions import BudgetExceededError, http_status_for


class TestBasicAccounting:
    def test_starts_empty(self):
        accountant = PrivacyAccountant(1.0, 1e-5)
        assert accountant.spent() == (0.0, 0.0)
        assert accountant.remaining() == (1.0, 1e-5)
        assert accountant.num_recorded == 0

    def test_records_accumulate(self):
        accountant = PrivacyAccountant(1.0, 1e-5)
        accountant.record(0.3, 1e-6)
        accountant.record(0.2, 1e-6)
        eps, delta = accountant.spent()
        assert eps == pytest.approx(0.5)
        assert delta == pytest.approx(2e-6)

    def test_budget_enforced(self):
        accountant = PrivacyAccountant(0.5, 1e-5)
        accountant.record(0.4, 0.0)
        with pytest.raises(BudgetExceededError):
            accountant.record(0.2, 0.0)

    def test_delta_budget_enforced(self):
        accountant = PrivacyAccountant(10.0, 1e-6)
        with pytest.raises(BudgetExceededError):
            accountant.record(0.1, 1e-5)

    def test_can_afford(self):
        accountant = PrivacyAccountant(1.0, 1e-5)
        assert accountant.can_afford(0.9, 0.0)
        assert not accountant.can_afford(1.1, 0.0)

    def test_failed_record_does_not_spend(self):
        accountant = PrivacyAccountant(0.5, 1e-5)
        with pytest.raises(BudgetExceededError):
            accountant.record(0.6, 0.0)
        assert accountant.spent() == (0.0, 0.0)

    def test_remaining_floors_at_zero(self):
        accountant = PrivacyAccountant(0.5, 1e-5)
        accountant.record(0.5, 0.0)
        assert accountant.remaining()[0] == 0.0


class TestAdvancedAccounting:
    def test_beats_basic_for_many_small(self):
        basic = PrivacyAccountant(100.0, 1e-2, composition="basic")
        advanced = PrivacyAccountant(100.0, 1e-2, composition="advanced")
        for _ in range(200):
            basic.record(0.05, 0.0)
            advanced.record(0.05, 0.0)
        assert advanced.spent()[0] < basic.spent()[0]

    def test_advanced_pays_slack_delta(self):
        accountant = PrivacyAccountant(
            10.0, 1e-2, composition="advanced", advanced_delta=1e-6
        )
        accountant.record(0.1, 0.0)
        assert accountant.spent()[1] == pytest.approx(1e-6)

    def test_rejects_unknown_composition(self):
        with pytest.raises(ValueError) as caught:
            PrivacyAccountant(1.0, 1e-5, composition="renyi")
        assert http_status_for(caught.value) == 400

    def test_rejects_bad_budget(self):
        with pytest.raises(Exception):
            PrivacyAccountant(-1.0, 1e-5)
