"""Declarative scenarios: network-shuffling workloads as data.

The paper's pipeline — build a graph, pick an ``A_ldp``, exchange for
``t`` rounds under ``A_all``/``A_single``, account the amplified central
``(eps, delta)`` — becomes one serializable :class:`Scenario` value and
one call::

    from repro import Scenario, run

    scenario = Scenario(
        graph={"kind": "k_regular", "params": {"degree": 8, "num_nodes": 10_000}},
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        values={"kind": "bernoulli", "params": {"rate": 0.3}},
        protocol="all",
        seed=0,
    )
    result = run(scenario)
    result.central_epsilon        # theorem-backed guarantee
    result.empirical_epsilon      # Theorem 6.1 on the realized allocation
    result.payloads()             # what the server received

Scenarios round-trip through JSON (``to_json``/``from_json``), sweep
over dotted parameter grids (:func:`sweep`), and price deployments
without simulating (:func:`bound`, :func:`stationary_bound`).  The
string keys resolve through extensible registries
(:data:`~repro.scenario.builders.GRAPHS`,
:data:`~repro.scenario.builders.MECHANISMS`, ...).
"""

from repro.scenario.auditing import audit
from repro.scenario.builders import (
    AUDIT_STATISTICS,
    DUMMIES,
    FAULTS,
    GRAPH_STATS,
    GRAPHS,
    MECHANISMS,
    REGISTRIES,
    VALUES,
    GraphStats,
)
from repro.scenario.cache import (
    GRAPH_CACHE,
    CacheCounters,
    GraphBundle,
    GraphCache,
)
from repro.scenario.profile import (
    DEFAULT_MEMORY_BUDGET,
    ProfilePolicy,
    ProfileStore,
    ScheduleAccounting,
    get_profile_policy,
    plan_profile,
    profile_policy,
    profile_stats,
    set_profile_policy,
)
from repro.scenario.registry import Registration, Registry
from repro.scenario.runner import (
    RunDigest,
    RunResult,
    SeedStreams,
    bound,
    build_dummy_factory,
    build_faults,
    build_graph,
    build_mechanism,
    build_values,
    clear_graph_cache,
    digest_run,
    graph_summary,
    run,
    seed_streams,
    spill_graph,
    stationary_bound,
)
from repro.scenario.spec import (
    AuditSpec,
    ComponentSpec,
    DummySpec,
    FaultSpec,
    FrozenParams,
    GraphSpec,
    MechanismSpec,
    Scenario,
    ValuesSpec,
)
from repro.scenario.sweep import (
    PointFailure,
    SweepPoint,
    SweepResult,
    sweep,
    sweep_scenarios,
)

__all__ = [
    "AUDIT_STATISTICS",
    "AuditSpec",
    "CacheCounters",
    "ComponentSpec",
    "DEFAULT_MEMORY_BUDGET",
    "DummySpec",
    "DUMMIES",
    "FaultSpec",
    "FAULTS",
    "FrozenParams",
    "GraphBundle",
    "GraphCache",
    "GraphSpec",
    "GraphStats",
    "GRAPH_CACHE",
    "GRAPH_STATS",
    "GRAPHS",
    "MechanismSpec",
    "MECHANISMS",
    "PointFailure",
    "ProfilePolicy",
    "ProfileStore",
    "REGISTRIES",
    "Registration",
    "Registry",
    "RunDigest",
    "RunResult",
    "Scenario",
    "ScheduleAccounting",
    "SeedStreams",
    "SweepPoint",
    "SweepResult",
    "VALUES",
    "ValuesSpec",
    "audit",
    "bound",
    "build_dummy_factory",
    "build_faults",
    "build_graph",
    "build_mechanism",
    "build_values",
    "clear_graph_cache",
    "digest_run",
    "get_profile_policy",
    "graph_summary",
    "plan_profile",
    "profile_policy",
    "profile_stats",
    "run",
    "seed_streams",
    "set_profile_policy",
    "spill_graph",
    "stationary_bound",
    "sweep",
    "sweep_scenarios",
]
