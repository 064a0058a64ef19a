"""Execute scenarios: ``run`` (simulate + account) and ``bound`` (account).

``run(scenario)`` is the one entry point the experiments, examples, and
CLI share: it materializes the graph, builds the mechanism and workload,
executes Algorithm 1/2 on the exchange engine, and evaluates the matching
amplification theorem — returning everything in a :class:`RunResult` so
privacy accounting is no longer a separate manual step.

Determinism contract
--------------------
``scenario.seed`` is a master seed.  :func:`seed_streams` derives three
independent child generators with the SeedSequence spawning protocol —
``graph``, ``values``, ``protocol`` in that order — and ``run`` consumes
them in exactly that way.  A hand-wired pipeline that draws its
generators from the same helper reproduces a ``run`` bit for bit, on
the engine or the per-message oracle; the scenario tests assert this.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.amplification.network_shuffle import (
    NetworkShuffleBound,
    epsilon_all_stationary,
    epsilon_all_symmetric,
    epsilon_from_report_sizes,
    epsilon_single_stationary,
    epsilon_single_symmetric,
)
from repro.exceptions import ScheduleRefusedError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.graphs.spectral import SpectralSummary
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel, NoFaults
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.reports import ProtocolResult
from repro.protocols.single_protocol import run_single_protocol
from repro.scenario.builders import (
    DUMMIES,
    FAULTS,
    GRAPH_STATS,
    GRAPHS,
    MECHANISMS,
    VALUES,
)
from repro.scenario.cache import (
    GRAPH_CACHE,
    GraphBundle,
    SeedStreams,
    graph_cache_key,
    seed_streams,
    spec_cache_key,
)
from repro.scenario.spec import Scenario
from repro.scenario.summary import run_summary_payload
from repro.utils.validation import check_non_negative_int

__all__ = [
    "RunResult",
    "SeedStreams",
    "bound",
    "build_dummy_factory",
    "build_faults",
    "build_graph",
    "build_mechanism",
    "build_values",
    "clear_graph_cache",
    "graph_summary",
    "run",
    "seed_streams",
    "spill_graph",
    "stationary_bound",
]


# ----------------------------------------------------------------------
# Graph materialization (cached across a sweep; see scenario/cache.py)
# ----------------------------------------------------------------------
def _bundle_for(scenario: Scenario) -> GraphBundle:
    payload = scenario.graph.to_dict()
    key = graph_cache_key(payload, scenario.seed)

    def build():
        # Probe whether the builder actually consumed the seed-derived
        # graph stream: a build that drew nothing (e.g. a dataset spec
        # with its wiring seed pinned as data, or a deterministic
        # topology like "complete") is provably identical across
        # scenario seeds, so the cache may share it seed-independently.
        # Both consumption channels are watched — direct draws mutate
        # the bit generator state, while child-stream derivation (the
        # schedule builder's churn phases) advances the SeedSequence
        # spawn counter without touching the state.
        rng = seed_streams(scenario.seed).graph
        bit_generator = rng.bit_generator
        state_before = bit_generator.state
        spawned_before = getattr(
            bit_generator.seed_seq, "n_children_spawned", 0
        )
        graph = GRAPHS.build(scenario.graph.kind, rng, **scenario.graph.params)
        untouched = (
            bit_generator.state == state_before
            and getattr(bit_generator.seed_seq, "n_children_spawned", 0)
            == spawned_before
        )
        return graph, untouched

    return GRAPH_CACHE.bundle(key, build, spec_key=spec_cache_key(payload))


def build_graph(scenario: Scenario) -> Union[Graph, DynamicGraphSchedule]:
    """Materialize the scenario's graph (memoized per spec + seed).

    A ``schedule`` spec materializes to a
    :class:`~repro.graphs.dynamic.DynamicGraphSchedule`.
    """
    return _bundle_for(scenario).graph


def graph_summary(scenario: Scenario) -> SpectralSummary:
    """Spectral summary of the scenario's graph (memoized alongside it)."""
    return _bundle_for(scenario).summary


def clear_graph_cache(*, detach_spill: bool = True) -> None:
    """Drop memoized graphs (tests, or after changing builders).

    ``detach_spill=False`` frees memory without detaching a standing
    on-disk spill tier (see :meth:`GraphCache.clear`).
    """
    GRAPH_CACHE.clear(detach_spill=detach_spill)


def spill_graph(scenario: Scenario):
    """Persist the scenario's materialized graph to the standing disk tier.

    The sweep engine's spill machinery, exposed for long-running
    processes (the serving tier): when the process-wide cache has a
    ``spill_dir`` attached, the scenario's graph is written as an
    ``.npz`` CSR (once — existing files are kept) so a restarted
    process loads it instead of re-running the generator.  Returns the
    written path, or ``None`` when no tier is attached or the graph is
    a dynamic schedule (no single CSR).
    """
    directory = GRAPH_CACHE.spill_dir
    if directory is None:
        return None
    payload = scenario.graph.to_dict()
    return GRAPH_CACHE.spill(
        graph_cache_key(payload, scenario.seed),
        _bundle_for(scenario),
        directory,
        spec_key=spec_cache_key(payload),
    )


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def _resolve_epsilon0(
    scenario: Scenario, mechanism: Optional[LocalRandomizer]
) -> Optional[float]:
    """The local budget accounting should use, or None when unknown."""
    if mechanism is not None:
        if (
            scenario.epsilon0 is not None
            and abs(mechanism.epsilon - scenario.epsilon0) > 1e-12
        ):
            raise ValidationError(
                f"mechanism epsilon ({mechanism.epsilon}) != scenario "
                f"epsilon0 ({scenario.epsilon0})"
            )
        return mechanism.epsilon
    return scenario.epsilon0


def _theorem_bound(
    scenario: Scenario,
    epsilon0: float,
    n: int,
    *,
    sum_squared: Optional[float] = None,
    distribution: Optional[np.ndarray] = None,
    delta0: float = 0.0,
) -> NetworkShuffleBound:
    """Dispatch to the theorem matching (protocol, analysis)."""
    all_kwargs: Dict[str, Any] = {}
    single_kwargs: Dict[str, Any] = {}
    if delta0 > 0.0:
        all_kwargs["delta0"] = delta0
        # The single-protocol theorems only consume delta2 on the
        # approximate-DP path; forward it there so the scenario's
        # accounting knobs always take effect.
        single_kwargs["delta0"] = delta0
        single_kwargs["delta2"] = scenario.delta2
    if distribution is not None:
        if scenario.protocol == "all":
            return epsilon_all_symmetric(
                epsilon0, n, distribution, scenario.delta, scenario.delta2,
                **all_kwargs,
            )
        return epsilon_single_symmetric(
            epsilon0, n, distribution, scenario.delta, **single_kwargs
        )
    if scenario.protocol == "all":
        return epsilon_all_stationary(
            epsilon0, n, sum_squared, scenario.delta, scenario.delta2,
            **all_kwargs,
        )
    return epsilon_single_stationary(
        epsilon0, n, sum_squared, scenario.delta, **single_kwargs
    )


def _mechanism_delta0(mechanism: Optional[LocalRandomizer]) -> float:
    if mechanism is None:
        return 0.0
    return getattr(mechanism, "delta", 0.0) or 0.0


def _accounting_laziness(scenario: Scenario) -> float:
    """The lazy-walk probability privacy accounting must assume.

    ``laziness`` maps directly; a ``faults`` spec maps when the built
    model has a lazy-walk equivalent (Section 4.5): ``NoFaults`` is the
    healthy walk, and any model exposing a ``dropout_probability``
    attribute (``IndependentDropout``, or a custom registration that
    declares its per-round i.i.d. offline probability the same way) IS
    the lazy walk with that probability.  Models without one — e.g.
    ``adversarial`` — have no closed-form walk equivalent, so accounting
    refuses rather than report an unsound epsilon.
    """
    if scenario.faults is None:
        return scenario.laziness
    model = build_faults(scenario)
    if isinstance(model, NoFaults):
        return 0.0
    probability = getattr(model, "dropout_probability", None)
    if probability is not None:
        return float(probability)
    raise ValidationError(
        f"cannot account a scenario with fault model "
        f"{scenario.faults.kind!r}: it has no "
        "lazy-walk equivalent (no dropout_probability). Run it "
        "simulation-only (no mechanism / epsilon0) and account separately."
    )


def _require_regular(graph: Union[Graph, DynamicGraphSchedule]) -> None:
    """Symmetric analysis assumes vertex transitivity: every user's walk
    distribution is a relabeling of node 0's.  On an irregular graph the
    node-0 bound would not hold for all users, so refuse."""
    if isinstance(graph, DynamicGraphSchedule):
        raise ScheduleRefusedError(
            "analysis='symmetric' (Theorems 5.4/5.6) assumes one vertex-"
            "transitive topology; a dynamic schedule is not jointly "
            "transitive — use analysis='stationary', which tracks every "
            "user's exact collision mass across the schedule"
        )
    if not graph.is_regular():
        raise ValidationError(
            "analysis='symmetric' (Theorems 5.4/5.6) requires a k-regular "
            "graph; use analysis='stationary' for irregular topologies"
        )


def _resolve_rounds(
    scenario: Scenario, bundle: GraphBundle, override: Optional[int] = None
) -> int:
    """The exchange round count to account/simulate at.

    Static graphs default to the mixing time (the paper's operating
    point); a dynamic schedule has no mixing time, so it requires the
    scenario (or the caller) to fix ``rounds`` explicitly.
    """
    if override is not None:
        return check_non_negative_int(override, "rounds")
    steps = scenario.rounds
    if steps is None:
        if bundle.is_schedule:
            raise ScheduleRefusedError(
                "a schedule scenario has no default round count (no "
                "mixing time on a time-varying topology); set "
                "scenario.rounds explicitly"
            )
        steps = bundle.summary.mixing_time
    return steps


def _lazy_sum_squared(summary: SpectralSummary, steps: int, laziness: float) -> float:
    """Equation 7 collision bound, adjusted for a lazy walk.

    The lazy chain ``p I + (1 - p) M`` keeps the stationary
    distribution but shrinks the spectral gap; ``(1 - p) alpha`` lower-
    bounds the lazy gap for both eigenvalue edges, so using it in the
    ``(1 - alpha)^{2t}`` decay is conservative (never understates eps).
    """
    if laziness == 0.0:
        return summary.sum_squared_bound(steps)
    lazy_gap = (1.0 - laziness) * summary.spectral_gap
    return min(
        1.0,
        summary.stationary_collision + (1.0 - lazy_gap) ** (2 * steps),
    )


def bound(scenario: Scenario, *, rounds: Optional[int] = None) -> NetworkShuffleBound:
    """The central-DP guarantee of ``scenario`` — no simulation.

    ``analysis="stationary"`` evaluates the Equation 7 collision bound
    at ``rounds``; ``analysis="symmetric"`` tracks the exact per-user
    position distribution (with the scenario's laziness, Section 4.5).
    ``rounds`` overrides the scenario's (resolved) round count.

    A ``schedule`` graph spec is accounted *exactly*: every user's
    position distribution is evolved through the per-round topologies
    in column panels kept by the bundle's
    :class:`~repro.scenario.profile.ProfileStore`, and the worst user's
    collision mass feeds the Theorem 5.3/5.5 bounds — no stationarity
    assumption, which a time-varying walk could not honor.
    """
    bundle = _bundle_for(scenario)
    mechanism = build_mechanism(scenario)
    epsilon0 = _resolve_epsilon0(scenario, mechanism)
    if epsilon0 is None:
        raise ValidationError(
            "accounting requires a mechanism or an explicit epsilon0"
        )
    n = bundle.graph.num_nodes
    steps = _resolve_rounds(scenario, bundle, rounds)
    delta0 = _mechanism_delta0(mechanism)
    laziness = _accounting_laziness(scenario)
    if scenario.truncation is not None and not bundle.is_schedule:
        raise ValidationError(
            "truncation applies only to schedule accounting (it prices "
            "dropped profile mass on a time-varying topology); static "
            "graphs are exact — remove the truncation field"
        )
    if scenario.analysis == "symmetric":
        _require_regular(bundle.graph)
        distribution = bundle.walk_distribution(steps, laziness)
        return _theorem_bound(
            scenario, epsilon0, n, distribution=distribution, delta0=delta0
        )
    if bundle.is_schedule:
        accounting = bundle.schedule_collision(
            steps, laziness, truncation=scenario.truncation
        )
        result = _theorem_bound(
            scenario, epsilon0, n,
            sum_squared=accounting.sum_squared, delta0=delta0,
        )
        return dataclasses.replace(result, accounting=accounting.payload())
    sum_squared = _lazy_sum_squared(bundle.summary, steps, laziness)
    return _theorem_bound(
        scenario, epsilon0, n, sum_squared=sum_squared, delta0=delta0
    )


def stationary_bound(
    scenario: Scenario, *, materialize: bool = False
) -> NetworkShuffleBound:
    """Closed-form guarantee *at stationarity* without building the graph.

    Uses the ``GRAPH_STATS`` registry (``sum_i P_i^2 -> sum_i pi_i^2 =
    Gamma_G / n``) when the graph kind has a closed form, falling back
    to materializing the graph otherwise.  This is what grid evaluations
    over million-user populations (Table 1, planning) call.

    ``materialize=True`` skips the closed form and prices the
    *materialized* graph's exact stationary collision instead — the
    stand-in studies (Figure 4's asymptote, ``use_standins`` curves)
    want the achieved ``Gamma``, not the published one.
    """
    mechanism = build_mechanism(scenario)
    epsilon0 = _resolve_epsilon0(scenario, mechanism)
    if epsilon0 is None:
        raise ValidationError(
            "accounting requires a mechanism or an explicit epsilon0"
        )
    # Refuse unaccountable fault models, like bound()/run() do.  The
    # returned laziness itself is irrelevant here: a lazy walk keeps the
    # stationary distribution, so the at-stationarity price is unchanged.
    _accounting_laziness(scenario)
    if scenario.graph.kind == "schedule":
        raise ScheduleRefusedError(
            "stationary_bound prices the walk *at stationarity*; a "
            "dynamic schedule has no stationary distribution — use "
            "bound(scenario) for exact schedule accounting"
        )
    kind = scenario.graph.kind
    if kind in GRAPH_STATS and not materialize:
        stats = GRAPH_STATS.build(kind, **scenario.graph.params)
        n, collision = stats.num_nodes, stats.stationary_collision
    else:
        bundle = _bundle_for(scenario)
        n = bundle.graph.num_nodes
        collision = bundle.summary.stationary_collision
    return _theorem_bound(
        scenario,
        epsilon0,
        n,
        sum_squared=collision,
        delta0=_mechanism_delta0(mechanism),
    )


# ----------------------------------------------------------------------
# Component construction
# ----------------------------------------------------------------------
def build_mechanism(scenario: Scenario) -> Optional[LocalRandomizer]:
    """Instantiate the scenario's ``A_ldp`` (or None)."""
    if scenario.mechanism is None:
        return None
    return MECHANISMS.build(scenario.mechanism.kind, **scenario.mechanism.params)


def build_faults(scenario: Scenario) -> Optional[DropoutModel]:
    """Instantiate the scenario's fault model (or None)."""
    if scenario.faults is None:
        return None
    return FAULTS.build(scenario.faults.kind, **scenario.faults.params)


def build_values(
    scenario: Scenario, num_users: int, rng: np.random.Generator
) -> Optional[List[Any]]:
    """Materialize one raw value per user from the values spec (or None)."""
    if scenario.values is None:
        return None
    return VALUES.build(
        scenario.values.kind, rng, num_users, **scenario.values.params
    )


def build_dummy_factory(
    scenario: Scenario, mechanism: Optional[LocalRandomizer]
) -> Optional[Any]:
    """Instantiate the scenario's dummy-report factory (or None).

    Dummy reports exist only in ``A_single`` (Algorithm 2 line 10:
    empty-handed users substitute one); ``A_all`` delivers every real
    report, so a ``dummies`` spec is inert there — kept legal so one
    base scenario can sweep a ``protocol`` axis across both algorithms.
    """
    if scenario.dummies is None:
        return None
    return DUMMIES.build(
        scenario.dummies.kind, mechanism, **scenario.dummies.params
    )


# ----------------------------------------------------------------------
# RunResult + run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything one scenario execution produced.

    Bundles the protocol simulation (reports, allocation, meters), the
    theorem-backed central guarantee, and — for ``A_all`` with a pure-DP
    mechanism — the Theorem 6.1 empirical epsilon of the realized
    allocation: the three things every call site used to assemble by
    hand.  ``empirical_epsilon`` is ``None`` for ``A_single`` (its
    adversary never observes the allocation, so the closed-form bound
    is the guarantee) and for approximate-DP mechanisms.
    """

    scenario: Scenario
    graph: Union[Graph, DynamicGraphSchedule]
    rounds: int
    mechanism: Optional[LocalRandomizer]
    values: Optional[List[Any]]
    protocol_result: ProtocolResult
    bound: Optional[NetworkShuffleBound]
    empirical_epsilon: Optional[float]
    elapsed_seconds: float

    @property
    def central_epsilon(self) -> Optional[float]:
        """Amplified central epsilon (None when no budget was declared)."""
        return None if self.bound is None else self.bound.epsilon

    @property
    def meters(self):
        """The network's traffic/memory meter board."""
        return self.protocol_result.meters

    def payloads(self, include_dummies: bool = True) -> List[Any]:
        """Payloads delivered to the server."""
        return self.protocol_result.payloads(include_dummies)

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest (one code path with ``RunDigest.summary``)."""
        result = self.protocol_result
        meters = result.meters
        return run_summary_payload(
            protocol=result.protocol,
            engine=self.scenario.engine,
            num_users=result.num_users,
            rounds=self.rounds,
            dummy_count=result.dummy_count,
            elapsed_seconds=self.elapsed_seconds,
            central_epsilon=None if self.bound is None else self.bound.epsilon,
            central_delta=None if self.bound is None else self.bound.delta,
            theorem=None if self.bound is None else self.bound.theorem,
            epsilon0=None if self.bound is None else self.bound.epsilon0,
            empirical_epsilon=self.empirical_epsilon,
            total_messages_sent=(
                None if meters is None else int(meters.total_messages_sent())
            ),
            max_peak_items=(
                None if meters is None else int(meters.max_peak_items())
            ),
            schedule_accounting=(
                None if self.bound is None else self.bound.accounting
            ),
        )


def run(scenario: Scenario) -> RunResult:
    """Execute ``scenario`` end to end: build, exchange, deliver, account."""
    started = time.perf_counter()
    streams = seed_streams(scenario.seed)
    bundle = _bundle_for(scenario)
    graph = bundle.graph
    rounds = _resolve_rounds(scenario, bundle)
    mechanism = build_mechanism(scenario)
    # Resolve the budget (and any mechanism/epsilon0 mismatch,
    # unaccountable fault model, or symmetric-on-irregular-graph
    # misuse) before paying for the simulation.
    epsilon0 = _resolve_epsilon0(scenario, mechanism)
    if epsilon0 is not None:
        _accounting_laziness(scenario)
        if scenario.analysis == "symmetric":
            _require_regular(graph)
    faults = build_faults(scenario)
    values = build_values(scenario, graph.num_nodes, streams.values)

    protocol_kwargs: Dict[str, Any] = dict(
        values=values,
        randomizer=mechanism,
        engine=scenario.engine,
        faults=faults,
        laziness=scenario.laziness,
        rng=streams.protocol,
    )
    if scenario.protocol == "all":
        protocol_result = run_all_protocol(graph, rounds, **protocol_kwargs)
    else:
        protocol_result = run_single_protocol(
            graph,
            rounds,
            dummy_factory=build_dummy_factory(scenario, mechanism),
            **protocol_kwargs,
        )

    run_bound: Optional[NetworkShuffleBound] = None
    empirical: Optional[float] = None
    if epsilon0 is not None:
        # Same dispatch as a standalone accounting call, at the
        # resolved round count (the graph bundle is memoized, the
        # mechanism rebuild is cheap).
        run_bound = bound(scenario, rounds=rounds)
        # Theorem 6.1 accounts the A_all adversary, who observes the
        # realized allocation; A_single hides it (that is the protocol's
        # point), so its guarantee stays the closed-form bound only.
        if scenario.protocol == "all" and _mechanism_delta0(mechanism) == 0.0:
            empirical = epsilon_from_report_sizes(
                epsilon0, protocol_result.allocation, scenario.delta
            )
    return RunResult(
        scenario=scenario,
        graph=graph,
        rounds=rounds,
        mechanism=mechanism,
        values=values,
        protocol_result=protocol_result,
        bound=run_bound,
        empirical_epsilon=empirical,
        elapsed_seconds=time.perf_counter() - started,
    )
