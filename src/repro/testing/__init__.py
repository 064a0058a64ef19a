"""Test equipment that ships with the library.

:mod:`repro.testing.faults` is the spec-driven fault-injection harness
behind the chaos tests and the CI chaos-smoke: it makes a sweep's grid
points raise, kill their worker process, or hang on demand, so the
fault-tolerance machinery (per-point isolation, crash recovery,
poison-point quarantine, incremental checkpointing) is exercised
against *real* failures rather than mocks.

:mod:`repro.testing.oracle` is the per-message exchange simulator
(:class:`~repro.testing.oracle.FaithfulNetwork`): the reference the
array exchange engine is tested against bit for bit.

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
