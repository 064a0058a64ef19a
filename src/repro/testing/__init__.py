"""Test equipment that ships with the library.

:mod:`repro.testing.faults` is the spec-driven fault-injection harness
behind the chaos tests and the CI chaos-smoke: it makes a sweep's grid
points raise, kill their worker process, or hang on demand, so the
fault-tolerance machinery (per-point isolation, crash recovery,
poison-point quarantine, incremental checkpointing) is exercised
against *real* failures rather than mocks.

:mod:`repro.testing.oracle` holds the reference implementations the
runtime paths are tested against:

* :class:`~repro.testing.oracle.FaithfulNetwork`, the per-message
  exchange simulator the array engine matches bit for bit;
* :func:`~repro.testing.oracle.looped_audit`, the per-trial auditor the
  ``kernel`` and ``tiled`` engines match statistically;
* :func:`~repro.testing.oracle.reverse_posterior_argmax`, the
  one-query collusion posterior the batched attack matches bit for bit;
* :func:`~repro.testing.oracle.evolve_profile_on_schedule` and
  :func:`~repro.testing.oracle.collision_profile_on_schedule`, the
  dense schedule profile the panel accounting matches bit for bit.

Nothing here is imported by the library's production paths except the
single :func:`~repro.testing.faults.maybe_fire` hook in the sweep
engine, which is a no-op unless a fault plan is explicitly installed.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    active_plan,
    inject,
    maybe_fire,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "active_plan",
    "inject",
    "maybe_fire",
]
