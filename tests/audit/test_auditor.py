"""Tests for the empirical privacy auditor."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.auditing.auditor import (
    _clopper_pearson,
    _KernelSampler,
    audit_local_randomizer,
    audit_network_shuffle,
    epsilon_lower_bound,
    report_sum_statistic,
    topk_evidence_statistic,
    weighted_evidence_statistic,
)
from repro.exceptions import ValidationError
from repro.graphs.generators import grid_graph, random_regular_graph
from repro.graphs.walks import position_distribution
from repro.ldp.laplace import LaplaceMechanism
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.testing.oracle import looped_audit


def _scalar_epsilon_lower_bound(statistics_d, statistics_d_prime, delta,
                                *, confidence=0.95):
    """The pre-vectorization scalar threshold sweep, kept as the
    bit-identity oracle for :func:`epsilon_lower_bound`."""
    a = np.asarray(statistics_d, dtype=np.float64)
    b = np.asarray(statistics_d_prime, dtype=np.float64)
    pooled = np.unique(np.concatenate([a, b]))
    if pooled.size > 512:
        pooled = pooled[:: pooled.size // 512]
    best_eps, best_threshold = 0.0, float(pooled[0])
    for threshold in pooled:
        counts = (int(np.sum(a > threshold)), int(np.sum(b > threshold)))
        for orientation in (">", "<="):
            if orientation == ">":
                flagged_d, flagged_dp = counts
            else:
                flagged_d, flagged_dp = a.size - counts[0], b.size - counts[1]
            for fc, ft, tc, tt in (
                (flagged_d, a.size, flagged_dp, b.size),
                (flagged_dp, b.size, flagged_d, a.size),
            ):
                fpr_upper = _clopper_pearson(
                    fc, ft, upper=True, confidence=confidence
                )
                tpr_lower = _clopper_pearson(
                    tc, tt, upper=False, confidence=confidence
                )
                numerator = tpr_lower - delta
                if numerator <= 0.0 or fpr_upper <= 0.0:
                    continue
                candidate = math.log(numerator / fpr_upper)
                if candidate > best_eps:
                    best_eps, best_threshold = candidate, float(threshold)
    return best_eps, best_threshold


class TestEpsilonLowerBound:
    def test_identical_distributions_give_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=2000)
        b = rng.normal(size=2000)
        eps, _ = epsilon_lower_bound(a, b, 0.0)
        assert eps < 0.2

    def test_disjoint_distributions_capped_by_min_count(self):
        """Perfectly separable worlds: the bound is limited only by the
        min_count guard, not by log(0)."""
        a = np.zeros(1000)
        b = np.ones(1000)
        eps, _ = epsilon_lower_bound(a, b, 0.0)
        assert np.isfinite(eps)

    def test_known_ratio(self):
        """Bernoulli worlds with ratio e: eps_hat ~ 1."""
        rng = np.random.default_rng(1)
        p = np.e / (1 + np.e)
        a = (rng.random(50_000) < 1 - p).astype(float)
        b = (rng.random(50_000) < p).astype(float)
        eps, _ = epsilon_lower_bound(a, b, 0.0)
        assert eps == pytest.approx(1.0, abs=0.1)

    def test_orientation_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, 5000)
        b = rng.normal(1.0, 1.0, 5000)
        forward, _ = epsilon_lower_bound(a, b, 0.0)
        backward, _ = epsilon_lower_bound(b, a, 0.0)
        assert forward == pytest.approx(backward, rel=0.25)

    def test_rejects_too_few_trials(self):
        with pytest.raises(ValidationError):
            epsilon_lower_bound(np.zeros(3), np.ones(3), 0.0)

    def test_delta_slack_reduces_bound(self):
        rng = np.random.default_rng(3)
        p = np.e / (1 + np.e)
        a = (rng.random(20_000) < 1 - p).astype(float)
        b = (rng.random(20_000) < p).astype(float)
        strict, _ = epsilon_lower_bound(a, b, 0.0)
        slack, _ = epsilon_lower_bound(a, b, 0.2)
        assert slack < strict

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_bit_identical_to_scalar_sweep(self, delta):
        """The vectorized searchsorted + array-ppf sweep must return the
        exact (eps, threshold) of the per-threshold scalar sweep."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(0.0, 1.0, 900)
            b = rng.normal(0.4, 1.2, 1100)
            assert epsilon_lower_bound(a, b, delta) == \
                _scalar_epsilon_lower_bound(a, b, delta)

    def test_bit_identical_on_discrete_statistics(self):
        rng = np.random.default_rng(9)
        a = (rng.random(3000) < 0.3).astype(float)
        b = (rng.random(3000) < 0.7).astype(float)
        assert epsilon_lower_bound(a, b, 0.0) == \
            _scalar_epsilon_lower_bound(a, b, 0.0)

    def test_bit_identical_when_nothing_certifies(self):
        same = np.full(100, 2.5)
        assert epsilon_lower_bound(same, same, 0.0) == \
            _scalar_epsilon_lower_bound(same, same, 0.0) == (0.0, 2.5)


class TestAuditLocalRandomizer:
    def test_rr_audit_matches_eps0(self):
        for eps0 in (0.5, 1.0, 2.0):
            result = audit_local_randomizer(
                BinaryRandomizedResponse(eps0), 0, 1, trials=30_000, rng=0
            )
            # Plug-in estimate: within 15% of the true loss.
            assert result.epsilon_lower_bound == pytest.approx(eps0, rel=0.15)

    def test_audit_never_wildly_exceeds_guarantee(self):
        """Soundness (up to estimation noise): eps_hat <~ eps0."""
        result = audit_local_randomizer(
            BinaryRandomizedResponse(1.0), 0, 1, trials=30_000, rng=1
        )
        assert result.epsilon_lower_bound <= 1.25

    def test_laplace_audit(self):
        mechanism = LaplaceMechanism(1.0, 0.0, 1.0)
        result = audit_local_randomizer(
            mechanism, 0.0, 1.0, trials=20_000, rng=0
        )
        assert 0.3 <= result.epsilon_lower_bound <= 1.25

    def test_mechanism_label(self):
        result = audit_local_randomizer(
            BinaryRandomizedResponse(1.0), 0, 1, trials=500, rng=0
        )
        assert "BinaryRandomizedResponse" in result.mechanism


class TestAuditNetworkShuffle:
    @pytest.fixture
    def graph(self):
        return random_regular_graph(6, 200, rng=0)

    def test_no_mixing_recovers_local_loss(self, graph):
        result = audit_network_shuffle(
            graph, 1.0, 0, trials=3000, rng=0
        )
        assert result.epsilon_lower_bound == pytest.approx(1.0, abs=0.35)

    def test_mixing_amplifies_empirically(self, graph):
        unmixed = audit_network_shuffle(graph, 1.0, 0, trials=3000, rng=0)
        mixed = audit_network_shuffle(graph, 1.0, 12, trials=3000, rng=0)
        assert mixed.epsilon_lower_bound < 0.7 * unmixed.epsilon_lower_bound
        assert mixed.certifies_amplification(1.0)

    def test_lower_bound_respects_theorem(self, graph):
        """eps_hat must stay below the Theorem 6.1-style accounting for
        the same run configuration (validity sandwich)."""
        from repro.amplification.network_shuffle import epsilon_all_stationary
        from repro.graphs.spectral import spectral_summary

        rounds = 12
        summary = spectral_summary(graph)
        upper = epsilon_all_stationary(
            1.0,
            graph.num_nodes,
            summary.sum_squared_bound(rounds),
            1e-6,
            1e-6,
        ).epsilon
        audit = audit_network_shuffle(graph, 1.0, rounds, trials=3000, rng=0)
        assert audit.epsilon_lower_bound < upper


class TestEngineEquivalence:
    """The two Monte Carlo engines and the per-trial oracle share one
    estimator.

    Same graph, same trial count, independent seeds: eps_hat from the
    kernel and tiled engines and from the looped oracle must agree to
    estimation noise, at an unmixed point (t=0, eps_hat ~ eps0) and
    past mixing (~0).
    """

    @staticmethod
    def _audits(graph, rounds, **options):
        results = {
            method: audit_network_shuffle(
                graph, 1.0, rounds, method=method, **options
            )
            for method in ("kernel", "tiled")
        }
        results["loop"] = looped_audit(graph, 1.0, rounds, **options)
        return results

    @pytest.fixture(scope="class")
    def graph(self):
        return random_regular_graph(6, 200, rng=0)

    def test_unmixed_point_agrees(self, graph):
        results = self._audits(graph, 0, trials=4000, rng=7)
        for method, result in results.items():
            assert result.epsilon_lower_bound == pytest.approx(
                1.0, abs=0.3
            ), (method, results)

    def test_mixed_point_agrees(self, graph):
        results = self._audits(graph, 14, trials=4000, rng=7)
        for method, result in results.items():
            assert result.epsilon_lower_bound < 0.25, (method, results)

    def test_statistics_distributions_match(self, graph):
        """Kolmogorov-style check: per-engine world statistics have the
        same distribution (quantiles within Monte Carlo noise)."""
        from repro.auditing import auditor as module

        statistic = weighted_evidence_statistic(graph, 6)
        randomizer = BinaryRandomizedResponse(1.0)
        sampler = _KernelSampler(graph, 6, 0.0)
        kernel = module._kernel_world_statistics(
            sampler, randomizer, 3000, 0, 0, statistic, np.random.default_rng(1)
        )
        tiled = module._tiled_world_statistics(
            graph, randomizer, 6, 3000, 0, 0, statistic, 0.0,
            np.random.default_rng(2),
        )
        quantiles = np.linspace(0.05, 0.95, 19)
        spread = np.quantile(tiled, 0.75) - np.quantile(tiled, 0.25)
        assert np.allclose(
            np.quantile(kernel, quantiles),
            np.quantile(tiled, quantiles),
            atol=0.25 * spread,
        )

    def test_deterministic_per_method(self, graph):
        assert self._audits(graph, 4, trials=500, rng=3) == self._audits(
            graph, 4, trials=500, rng=3
        )

    def test_unknown_method_rejected(self, graph):
        for method in ("warp", "loop"):
            with pytest.raises(ValidationError, match="method"):
                audit_network_shuffle(
                    graph, 1.0, 2, trials=100, method=method
                )


class TestKernelSampler:
    """The rejection sampler draws exactly from the t-step kernel."""

    def test_marginals_match_exact_distribution(self):
        graph = random_regular_graph(6, 100, rng=0)
        sampler = _KernelSampler(graph, 5, 0.0)
        trials = 4000
        holders = sampler.sample_tiled(
            trials, np.random.default_rng(0)
        ).reshape(trials, 100)
        for start in (0, 31):
            exact = position_distribution(graph, start, 5)
            empirical = np.bincount(holders[:, start], minlength=100) / trials
            # Per-bin binomial noise: a few sigma of sqrt(p / trials).
            tolerance = 5.0 * np.sqrt(exact.max() / trials) + 1e-3
            assert np.abs(empirical - exact).max() < tolerance

    def test_identity_at_zero_rounds(self):
        graph = random_regular_graph(4, 60, rng=0)
        sampler = _KernelSampler(graph, 0, 0.0)
        holders = sampler.sample_tiled(50, np.random.default_rng(0))
        np.testing.assert_array_equal(
            holders.reshape(50, 60), np.tile(np.arange(60), (50, 1))
        )

    def test_staged_composition_on_long_chains(self):
        """Deep-mixing chains stop early and compose half-kernels; the
        sampled law is still the exact t-step distribution."""
        torus = grid_graph(5, 9, periodic=True)
        rounds = 220
        sampler = _KernelSampler(torus, rounds, 0.0)
        assert len(sampler._stages) > 1
        trials = 4000
        holders = sampler.sample_tiled(
            trials, np.random.default_rng(1)
        ).reshape(trials, 45)
        exact = position_distribution(torus, 7, rounds)
        empirical = np.bincount(holders[:, 7], minlength=45) / trials
        assert np.abs(empirical - exact).max() < 5.0 * np.sqrt(
            exact.max() / trials
        )

    def test_lazy_kernel(self):
        graph = random_regular_graph(6, 80, rng=0)
        sampler = _KernelSampler(graph, 4, 0.5)
        trials = 4000
        holders = sampler.sample_tiled(
            trials, np.random.default_rng(2)
        ).reshape(trials, 80)
        exact = position_distribution(graph, 3, 4, laziness=0.5)
        empirical = np.bincount(holders[:, 3], minlength=80) / trials
        assert np.abs(empirical - exact).max() < 5.0 * np.sqrt(
            exact.max() / trials
        ) + 1e-3


class TestAttackerStatistics:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_regular_graph(6, 64, rng=0)

    def test_weighted_evidence_shape_and_value(self, graph):
        statistic = weighted_evidence_statistic(graph, 3)
        payloads = np.ones((5, 64), dtype=np.int64)
        holders = np.tile(np.arange(64), (5, 1))
        weights = position_distribution(graph, 0, 3)
        out = statistic(payloads, holders)
        assert out.shape == (5,)
        assert out == pytest.approx(np.full(5, weights.sum()))

    def test_topk_counts_only_top_nodes(self, graph):
        statistic = topk_evidence_statistic(graph, 2, top_k=4)
        payloads = np.ones((3, 64), dtype=np.int64)
        holders = np.tile(np.arange(64), (3, 1))
        out = statistic(payloads, holders)
        assert np.all(out == 4.0)

    def test_report_sum_ignores_positions(self, graph):
        statistic = report_sum_statistic(graph, 2)
        payloads = np.zeros((4, 64), dtype=np.int64)
        payloads[:, :10] = 1
        out = statistic(payloads, np.zeros((4, 64), dtype=np.int64))
        assert np.all(out == 10.0)

    def test_position_blind_adversary_measures_nothing(self, graph):
        """Even at t=0 the report-sum adversary cannot single out the
        victim among the honest-majority noise."""
        informed = audit_network_shuffle(graph, 1.0, 0, trials=3000, rng=0)
        blind = audit_network_shuffle(
            graph, 1.0, 0, trials=3000, rng=0,
            statistic=report_sum_statistic(graph, 0),
        )
        assert blind.epsilon_lower_bound < 0.5 * informed.epsilon_lower_bound

    def test_custom_label(self, graph):
        result = audit_network_shuffle(
            graph, 1.0, 2, trials=200, rng=0, label="my-audit"
        )
        assert result.mechanism == "my-audit"

    def test_summary_is_json_able(self, graph):
        import json

        result = audit_network_shuffle(graph, 1.0, 2, trials=200, rng=0)
        payload = json.loads(json.dumps(result.summary()))
        assert payload["trials"] == 200
        assert payload["epsilon_lower_bound"] == result.epsilon_lower_bound


class TestVictimParameter:
    def test_victim_wired_into_game(self):
        """The distinguishing game must flip the *statistic's* victim:
        on a vertex-transitive audit any victim measures the same loss,
        so victim=5 at t=0 must recover ~eps0, not ~0."""
        graph = random_regular_graph(6, 100, rng=0)
        default = audit_network_shuffle(graph, 1.0, 0, trials=3000, rng=0)
        shifted = audit_network_shuffle(
            graph, 1.0, 0, trials=3000, rng=0, victim=5
        )
        assert shifted.epsilon_lower_bound == pytest.approx(
            default.epsilon_lower_bound, abs=0.3
        )
        assert shifted.epsilon_lower_bound > 0.5

    def test_victim_out_of_range(self):
        graph = random_regular_graph(4, 20, rng=0)
        with pytest.raises(ValidationError, match="victim"):
            audit_network_shuffle(graph, 1.0, 2, trials=100, victim=20)

    def test_scenario_audit_victim_param(self):
        import dataclasses

        import repro

        scenario = repro.Scenario(
            graph={"kind": "k_regular", "params": {"degree": 6, "num_nodes": 100}},
            mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
            rounds=0,
            seed=0,
        )
        specced = dataclasses.replace(
            scenario,
            audit={"kind": "weighted_evidence",
                   "params": {"victim": 7, "trials": 2500}},
        )
        result = repro.audit(specced)
        # t=0 with the game flipping user 7: the informed adversary
        # still recovers ~the local loss.
        assert result.epsilon_lower_bound > 0.5


class TestScheduleAuditing:
    """The step-walking engines extend to dynamic schedules; the kernel
    engine (one static dense M^t) refuses them loudly."""

    @pytest.fixture
    def schedule(self):
        from repro.graphs.dynamic import DynamicGraphSchedule

        return DynamicGraphSchedule([
            random_regular_graph(4, 60, rng=0),
            random_regular_graph(6, 60, rng=1),
        ])

    def test_auto_resolves_to_tiled(self, schedule):
        result = audit_network_shuffle(schedule, 1.0, 4, trials=150, rng=0)
        assert result.epsilon_lower_bound >= 0.0

    def test_kernel_rejected(self, schedule):
        with pytest.raises(ValidationError, match="kernel"):
            audit_network_shuffle(
                schedule, 1.0, 4, trials=150, method="kernel", rng=0
            )

    def test_tiled_and_loop_agree_statistically(self, schedule):
        tiled = audit_network_shuffle(
            schedule, 2.0, 0, trials=800, method="tiled", rng=0
        )
        looped = looped_audit(schedule, 2.0, 0, trials=800, rng=0)
        # t=0: both should measure ~eps0 (same estimator, same trial
        # count; draws differ in granularity only).
        assert tiled.epsilon_lower_bound == pytest.approx(
            looped.epsilon_lower_bound, abs=0.6
        )
        assert tiled.epsilon_lower_bound > 0.8

    def test_mixing_on_schedule_amplifies(self, schedule):
        raw = audit_network_shuffle(schedule, 3.0, 0, trials=500, rng=1)
        mixed = audit_network_shuffle(schedule, 3.0, 12, trials=500, rng=1)
        assert mixed.epsilon_lower_bound < raw.epsilon_lower_bound

    def test_weighted_statistic_uses_scheduled_evolution(self, schedule):
        from repro.graphs.dynamic import position_distribution_on_schedule

        statistic = weighted_evidence_statistic(schedule, 5)
        weights = position_distribution_on_schedule(schedule, 0, 5)
        payloads = np.ones((1, 60))
        holders = np.tile(np.arange(60), (1, 1))
        assert statistic(payloads, holders)[0] == pytest.approx(
            weights.sum()
        )


class TestBatchedLocalAudit:
    """audit_local_randomizer draws each world through randomize_batch."""

    def test_binary_rr_bit_identical_to_per_trial_loop(self):
        """Binary RR's batch draw consumes one uniform per report in
        trial order — exactly the per-trial loop's stream — so the
        batched audit reproduces the looped audit bit for bit."""
        randomizer = BinaryRandomizedResponse(1.5)
        batched = audit_local_randomizer(
            randomizer, 0, 1, trials=400, rng=7
        )
        generator = np.random.default_rng(7)
        stats_d = np.array([
            float(randomizer.randomize(0, generator)) for _ in range(400)
        ])
        stats_d_prime = np.array([
            float(randomizer.randomize(1, generator)) for _ in range(400)
        ])
        eps, threshold = epsilon_lower_bound(stats_d, stats_d_prime, 0.0)
        assert batched.epsilon_lower_bound == eps
        assert batched.best_threshold == threshold

    def test_default_batch_falls_back_to_loop_exactly(self):
        """A mechanism without a vectorized batch uses the base-class
        per-report loop — the audit is unchanged for it."""
        from repro.ldp.base import LocalRandomizer

        class _Loopy(LocalRandomizer):
            def __init__(self):
                super().__init__(1.0)

            def _randomize(self, value, rng):
                return value if rng.random() < 0.7 else 1 - value

        batched = audit_local_randomizer(_Loopy(), 0, 1, trials=300, rng=5)
        generator = np.random.default_rng(5)
        loopy = _Loopy()
        stats_d = np.array([
            float(loopy.randomize(0, generator)) for _ in range(300)
        ])
        stats_d_prime = np.array([
            float(loopy.randomize(1, generator)) for _ in range(300)
        ])
        eps, _ = epsilon_lower_bound(stats_d, stats_d_prime, 0.0)
        assert batched.epsilon_lower_bound == eps

    def test_custom_statistic_applies_per_report(self):
        randomizer = BinaryRandomizedResponse(2.0)
        result = audit_local_randomizer(
            randomizer, 0, 1, trials=500,
            statistic=lambda report: 10.0 * float(report), rng=0,
        )
        assert result.epsilon_lower_bound > 0.5

    def test_laplace_batch_audit_still_measures_eps(self):
        """Laplace's vectorized batch draws one Laplace variate per
        report in trial order, so the batched audit reproduces the
        looped audit bit for bit and still measures its epsilon."""
        randomizer = LaplaceMechanism(1.0, 0.0, 1.0)
        result = audit_local_randomizer(
            randomizer, 0.0, 1.0, trials=4000, rng=0
        )
        generator = np.random.default_rng(0)
        stats_d = np.array([
            float(randomizer.randomize(0.0, generator)) for _ in range(4000)
        ])
        stats_d_prime = np.array([
            float(randomizer.randomize(1.0, generator)) for _ in range(4000)
        ])
        eps, threshold = epsilon_lower_bound(stats_d, stats_d_prime, 0.0)
        assert result.epsilon_lower_bound == eps
        assert result.best_threshold == threshold
        assert 0.2 < result.epsilon_lower_bound <= 1.2
