"""Scenario-level empirical auditing: ``repro.audit(scenario)``.

Runs the Theorem 6.1 distinguishing game against the scenario's
configuration through the trial-batched Monte Carlo auditor
(:mod:`repro.auditing.auditor`), so empirical-epsilon studies ride the
declarative API exactly like ``run``/``bound``: the graph comes from the
memoized bundle, the attacker statistic resolves through the
:data:`~repro.scenario.builders.AUDIT_STATISTICS` registry, and the
randomness comes from the scenario seed's dedicated ``audit`` child
stream — auditing a scenario never perturbs what ``run(scenario)``
simulates.  The auditor picks its own Monte Carlo engine
(:func:`~repro.auditing.auditor.resolve_method`; no option overrides
it), and whenever that is the kernel engine the bundle's memoized
sampler is handed in, so audit sweeps build each ``M^t`` once.

The audit implements the binary-RR distinguishing game of the paper's
Section 6, so the scenario must use the ``"rr"`` mechanism (or no
mechanism plus an explicit ``epsilon0``) and the ``A_all`` protocol —
the audited adversary observes the full allocation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.auditing.auditor import (
    AuditResult,
    audit_network_shuffle,
    resolve_method,
)
from repro.exceptions import ValidationError
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.scenario.builders import AUDIT_STATISTICS
from repro.scenario.runner import (
    _accounting_laziness,
    _bundle_for,
    _resolve_epsilon0,
    _resolve_rounds,
    build_mechanism,
    seed_streams,
)
from repro.scenario.spec import AuditSpec, Scenario
from repro.utils.rng import RngLike

#: Audit-game defaults when the scenario carries no audit spec.
_DEFAULT_STATISTIC = "weighted_evidence"
_DEFAULT_TRIALS = 2000
_DEFAULT_CONFIDENCE = 0.95


def _audit_epsilon0(scenario: Scenario) -> float:
    """The local budget the distinguishing game should attack."""
    mechanism = build_mechanism(scenario)
    if mechanism is not None and not isinstance(
        mechanism, BinaryRandomizedResponse
    ):
        raise ValidationError(
            "the empirical audit implements the binary-RR distinguishing "
            f"game; mechanism {scenario.mechanism.kind!r} cannot be audited "
            "— use mechanism 'rr' or drop the mechanism and set epsilon0"
        )
    epsilon0 = _resolve_epsilon0(scenario.epsilon0, mechanism)
    if epsilon0 is None:
        raise ValidationError(
            "auditing requires a mechanism or an explicit epsilon0"
        )
    return epsilon0


def fold_audit_options(
    scenario: Scenario,
    *,
    trials: Optional[int] = None,
    rounds: Optional[int] = None,
) -> Scenario:
    """The scenario with :func:`audit`'s overrides folded in.

    ``trials`` lands in ``audit.params.trials`` (adding the default
    statistic's spec when there is none) and ``rounds`` in the
    scenario's own ``rounds`` — which is how :func:`audit` applies them,
    so the folded scenario audits identically and carries the overrides
    in its identity (its store hash, its pool payload).
    """
    changes: Dict[str, Any] = {}
    if trials is not None:
        changes["audit"] = scenario.audit or AuditSpec(kind=_DEFAULT_STATISTIC)
        changes["audit.trials"] = trials
    if rounds is not None:
        changes["rounds"] = rounds
    return scenario.updated(**changes) if changes else scenario


def audit(
    scenario: Scenario,
    *,
    trials: Optional[int] = None,
    rounds: Optional[int] = None,
    rng: RngLike = None,
) -> AuditResult:
    """Measure the scenario's empirical epsilon lower bound.

    Parameters
    ----------
    scenario:
        The workload to audit.  Its ``audit`` spec (if any) selects the
        attacker statistic and the ``trials``/``confidence`` knobs.
    trials:
        Overrides the spec's trial count (default 2000).
    rounds:
        Overrides the scenario's (resolved) exchange rounds.
    rng:
        Overrides the scenario seed's ``audit`` child stream — pass an
        explicit generator to draw audit replicas without re-deriving
        seeds.
    """
    scenario = fold_audit_options(scenario, trials=trials, rounds=rounds)
    if scenario.protocol != "all":
        raise ValidationError(
            "the audited adversary observes the full A_all allocation; "
            f"protocol {scenario.protocol!r} cannot be audited"
        )
    epsilon0 = _audit_epsilon0(scenario)
    bundle = _bundle_for(scenario)
    steps = _resolve_rounds(bundle, scenario.rounds)
    laziness = _accounting_laziness(scenario)

    spec = scenario.audit if scenario.audit is not None else AuditSpec(
        kind=_DEFAULT_STATISTIC
    )
    params: Dict[str, Any] = dict(spec.params)
    reserved = {
        key: params.pop(key) for key in AuditSpec.RESERVED if key in params
    }
    game_trials = int(reserved.get("trials", _DEFAULT_TRIALS))
    confidence = float(reserved.get("confidence", _DEFAULT_CONFIDENCE))
    # ``victim`` parameterizes both the statistic (whose position
    # distribution to weigh) and the game itself (whose bit the worlds
    # flip), so it stays in the builder params *and* reaches the engine.
    victim = params.get("victim", 0)
    statistic = AUDIT_STATISTICS.build(
        spec.kind, bundle.graph, steps, laziness, **params
    )
    generator = rng if rng is not None else seed_streams(scenario.seed).audit
    # When the kernel engine will run (only on static graphs within
    # KERNEL_MAX_NODES), hand it the bundle's memoized sampler: repeated
    # audits (eps0/trials axes) reuse it outright and a rounds axis
    # continues the bundle's t-step profile — both bit-identical to a
    # cold build (the sampler build is deterministic; only sampling
    # consumes randomness).
    sampler = None
    if resolve_method(bundle.graph, steps) == "kernel":
        sampler = bundle.kernel_sampler(steps, laziness)
    return audit_network_shuffle(
        bundle.graph,
        epsilon0,
        steps,
        trials=game_trials,
        delta=scenario.delta,
        laziness=laziness,
        victim=victim,
        statistic=statistic,
        confidence=confidence,
        kernel_sampler=sampler,
        label=f"scenario:{spec.kind}:t={steps}",
        rng=generator,
    )
