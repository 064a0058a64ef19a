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
    epsilon_from_report_sizes,
    sum_squared_bound,
    theorem_bound,
)
from repro.exceptions import ScheduleRefusedError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule, dense_panel
from repro.graphs.graph import Graph
from repro.graphs.spectral import SpectralSummary
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel, NoFaults
from repro.protocols import ProtocolResult, run_protocol
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
from repro.utils.validation import check_non_negative_int

__all__ = [
    "RunDigest",
    "RunResult",
    "SeedStreams",
    "bound",
    "build_dummy_factory",
    "build_faults",
    "build_graph",
    "build_mechanism",
    "build_values",
    "clear_graph_cache",
    "digest_run",
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
# Accounting.  ``bound``/``run`` resolve a Scenario to a bundle and plain
# _Settings; _preflight, _bound_on and _simulate then work on those alone,
# which is all NetworkShuffler needs for a caller-built graph.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Settings:
    """A scenario's accounting inputs as plain values.  ``epsilon0`` is
    None when the run does not account; ``laziness`` is the one accounting
    assumes (:func:`_accounting_laziness`), not the simulated one."""

    protocol: str
    analysis: str
    epsilon0: Optional[float]
    delta: float
    delta2: float
    delta0: float = 0.0
    laziness: float = 0.0
    rounds: Optional[int] = None
    truncation: Optional[float] = None


def _resolve_epsilon0(
    epsilon0: Optional[float], mechanism: Optional[LocalRandomizer]
) -> Optional[float]:
    """The local budget accounting should use, or None when unknown."""
    if mechanism is None:
        return epsilon0
    if epsilon0 is not None and abs(mechanism.epsilon - epsilon0) > 1e-12:
        raise ValidationError(
            f"mechanism epsilon ({mechanism.epsilon}) != epsilon0 ({epsilon0})"
        )
    return mechanism.epsilon


def _settings(scenario: Scenario, mechanism: Optional[LocalRandomizer]) -> _Settings:
    epsilon0 = _resolve_epsilon0(scenario.epsilon0, mechanism)
    return _Settings(
        protocol=scenario.protocol,
        analysis=scenario.analysis,
        epsilon0=epsilon0,
        delta=scenario.delta,
        delta2=scenario.delta2,
        delta0=getattr(mechanism, "delta", 0.0) or 0.0,
        # Only a run that accounts needs a walk-equivalent fault model.
        laziness=0.0 if epsilon0 is None else _accounting_laziness(scenario),
        rounds=scenario.rounds,
        truncation=scenario.truncation,
    )


def _accounting_settings(scenario: Scenario) -> _Settings:
    settings = _settings(scenario, build_mechanism(scenario))
    if settings.epsilon0 is None:
        raise ValidationError(
            "accounting requires a mechanism or an explicit epsilon0"
        )
    return settings


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


def _resolve_rounds(bundle: GraphBundle, rounds: Optional[int]) -> int:
    """The exchange round count to account/simulate at.

    Static graphs default to the mixing time (the paper's operating
    point); a dynamic schedule has no mixing time, so it requires the
    scenario (or the caller) to fix ``rounds`` explicitly.
    """
    if rounds is not None:
        return check_non_negative_int(rounds, "rounds")
    if bundle.is_schedule:
        raise ScheduleRefusedError(
            "a schedule scenario has no default round count (no "
            "mixing time on a time-varying topology); set "
            "scenario.rounds explicitly"
        )
    return bundle.summary.mixing_time


def _preflight(bundle: GraphBundle, settings: _Settings, rounds: Optional[int] = None) -> int:
    """Resolve the round count and refuse what accounting cannot price.

    Runs before any simulation; ``rounds`` overrides the settings'.  The
    refusals of a run that accounts do not depend on its rounds: the
    symmetric analysis needs a regular graph, and every static graph an
    ergodic one.  Ergodicity comes from the memoized spectral summary
    when the bound reads it anyway, else from the connectivity check.
    """
    accounts = settings.epsilon0 is not None
    if accounts and settings.truncation is not None and not bundle.is_schedule:
        raise ValidationError(
            "truncation applies only to schedule accounting (it prices "
            "dropped profile mass on a time-varying topology); static "
            "graphs are exact — remove the truncation field"
        )
    if accounts and settings.analysis == "symmetric":
        _require_regular(bundle.graph)
    steps = _resolve_rounds(bundle, settings.rounds if rounds is None else rounds)
    if not accounts or bundle.is_schedule:
        return steps
    if settings.analysis == "stationary":
        bundle.summary  # the bound reads it; computing it checks ergodicity
    else:
        bundle.require_ergodic()
    return steps


def _theorem(settings: _Settings, n: int, **mass: Any) -> NetworkShuffleBound:
    return theorem_bound(
        settings.protocol, settings.epsilon0, n, settings.delta,
        settings.delta2, delta0=settings.delta0, **mass,
    )


def _bound_on(bundle: GraphBundle, settings: _Settings, steps: int) -> NetworkShuffleBound:
    """The Theorem 5.3-5.6 guarantee of a pre-flighted bundle at ``steps``.

    Both exact analyses read the bundle's ``t``-step profile
    (:class:`~repro.scenario.profile.ProfileStore`, memoized per
    laziness, continued by ascending ``rounds``).  The symmetric
    analysis reads one column: the exact walk from node 0.  A schedule
    is accounted exactly: every user's position distribution is evolved
    through the per-round topologies in column panels, and the worst
    user's collision mass feeds the Theorem 5.3/5.5 bounds — no
    stationarity assumption, which a time-varying walk could not honor.
    """
    n = bundle.graph.num_nodes
    if settings.analysis == "symmetric":
        panel, _ = bundle.profile_store(settings.laziness, 1).panel(steps)
        return _theorem(settings, n, distribution=dense_panel(panel)[:, 0])
    if bundle.is_schedule:
        accounting = bundle.schedule_collision(
            steps, settings.laziness, truncation=settings.truncation
        )
        result = _theorem(settings, n, sum_squared=accounting.sum_squared)
        return dataclasses.replace(result, accounting=accounting.payload())
    summary = bundle.summary
    sum_squared = sum_squared_bound(
        summary.stationary_collision, summary.spectral_gap, steps, settings.laziness
    )
    return _theorem(settings, n, sum_squared=sum_squared)


def _simulate(
    bundle: GraphBundle, settings: _Settings, steps: int, *,
    randomizer: Optional[LocalRandomizer], **protocol_kwargs: Any,
) -> ProtocolResult:
    """Run the settings' protocol on the bundle's graph for ``steps``
    rounds, once the randomizer's budget matches the accounted one."""
    _resolve_epsilon0(settings.epsilon0, randomizer)
    return run_protocol(
        settings.protocol, bundle.graph, steps,
        randomizer=randomizer, **protocol_kwargs,
    )


def _empirical_epsilon(settings: _Settings, result: ProtocolResult) -> float:
    """Theorem 6.1 on a realized run's allocation."""
    return epsilon_from_report_sizes(
        settings.epsilon0, result.allocation, settings.delta
    )


def bound(scenario: Scenario, *, rounds: Optional[int] = None) -> NetworkShuffleBound:
    """The central-DP guarantee of ``scenario`` — no simulation.

    ``analysis="stationary"`` evaluates the Equation 7 collision bound
    at ``rounds``; ``analysis="symmetric"`` tracks the exact per-user
    position distribution (with the scenario's laziness, Section 4.5).
    ``rounds`` overrides the scenario's (resolved) round count.  A
    ``schedule`` graph spec is accounted exactly (see :func:`_bound_on`).
    """
    bundle = _bundle_for(scenario)
    settings = _accounting_settings(scenario)
    return _bound_on(bundle, settings, _preflight(bundle, settings, rounds))


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
    # The settings refuse unaccountable fault models, like bound()/run()
    # do.  Their laziness is irrelevant here: a lazy walk keeps the
    # stationary distribution, so the at-stationarity price is unchanged.
    settings = _accounting_settings(scenario)
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
    return _theorem(settings, n, sum_squared=collision)


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
) -> Optional[np.ndarray]:
    """Materialize one raw value per user from the values spec (or None):
    an ``(n,)`` or ``(n, d)`` array."""
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
    values: Optional[np.ndarray]
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
        """JSON-able digest: the summary of this run's :class:`RunDigest`."""
        return digest_run(self).summary()


@dataclass(frozen=True)
class RunDigest:
    """The one record of a run: summary scalars + meter totals.

    Everything heavy — the graph, the server reports, the values, the
    per-user meter board — stays behind; a digest is a few hundred
    bytes regardless of ``n``, which is what lets pooled sweeps scale to
    million-user grids, and it is what the campaign store keeps.
    :meth:`summary` is the one rendering of a run: ``repro run``, the
    serving tier's job results and :meth:`RunResult.summary` all print
    it.
    """

    protocol: str
    engine: str
    num_users: int
    rounds: int
    dummy_count: int
    elapsed_seconds: float
    central_epsilon: Optional[float] = None
    central_delta: Optional[float] = None
    theorem: Optional[str] = None
    epsilon0: Optional[float] = None
    empirical_epsilon: Optional[float] = None
    total_messages_sent: Optional[int] = None
    max_peak_items: Optional[int] = None
    schedule_accounting: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, Any]:
        """JSON-able summary, keys in a fixed order.

        * The execution scalars (protocol, engine, backend, num_users,
          rounds, dummy_count, elapsed_seconds) are always present.
          ``engine`` echoes the scenario's spelling; ``backend`` is
          always ``vectorized``, the one exchange every spelling runs.
        * The four accounting fields appear together iff a central bound
          was computed (``central_epsilon is not None``).
        * ``empirical_epsilon`` appears iff the Theorem 6.1 estimate
          exists (``A_all`` with a pure-DP mechanism).
        * The meter aggregates appear together iff the run was metered.
        * ``schedule_accounting`` appears iff the bound came from
          dynamic-schedule accounting (strategy, block geometry,
          truncation bound).
        """
        payload: Dict[str, Any] = {
            "protocol": self.protocol,
            "engine": self.engine,
            "backend": "vectorized",
            "num_users": int(self.num_users),
            "rounds": int(self.rounds),
            "dummy_count": int(self.dummy_count),
            "elapsed_seconds": round(float(self.elapsed_seconds), 6),
        }
        if self.central_epsilon is not None:
            payload.update(
                central_epsilon=self.central_epsilon,
                central_delta=self.central_delta,
                theorem=self.theorem,
                epsilon0=self.epsilon0,
            )
        if self.empirical_epsilon is not None:
            payload["empirical_epsilon"] = self.empirical_epsilon
        if self.total_messages_sent is not None:
            payload["total_messages_sent"] = int(self.total_messages_sent)
            payload["max_peak_items"] = (
                None if self.max_peak_items is None
                else int(self.max_peak_items)
            )
        if self.schedule_accounting is not None:
            payload["schedule_accounting"] = dict(self.schedule_accounting)
        return payload


def digest_run(result: RunResult) -> RunDigest:
    """Condense a :class:`RunResult` into its :class:`RunDigest`."""
    bound_ = result.bound
    meters = result.protocol_result.meters
    return RunDigest(
        protocol=result.protocol_result.protocol,
        engine=result.scenario.engine,
        num_users=result.protocol_result.num_users,
        rounds=result.rounds,
        dummy_count=result.protocol_result.dummy_count,
        elapsed_seconds=round(result.elapsed_seconds, 6),
        central_epsilon=None if bound_ is None else bound_.epsilon,
        central_delta=None if bound_ is None else bound_.delta,
        theorem=None if bound_ is None else bound_.theorem,
        epsilon0=None if bound_ is None else bound_.epsilon0,
        empirical_epsilon=result.empirical_epsilon,
        total_messages_sent=(
            None if meters is None else int(meters.total_messages_sent())
        ),
        max_peak_items=(
            None if meters is None else int(meters.max_peak_items())
        ),
        schedule_accounting=(
            None if bound_ is None or bound_.accounting is None
            else dict(bound_.accounting)
        ),
    )


def run(scenario: Scenario) -> RunResult:
    """Execute ``scenario`` end to end: build, exchange, deliver, account."""
    started = time.perf_counter()
    streams = seed_streams(scenario.seed)
    bundle = _bundle_for(scenario)
    mechanism = build_mechanism(scenario)
    settings = _settings(scenario, mechanism)
    # Resolve the rounds and refuse what accounting cannot price before
    # paying for the simulation.
    rounds = _preflight(bundle, settings)
    faults = build_faults(scenario)
    values = build_values(scenario, bundle.graph.num_nodes, streams.values)
    protocol_result = _simulate(
        bundle,
        settings,
        rounds,
        values=values,
        randomizer=mechanism,
        engine=scenario.engine,
        faults=faults,
        laziness=scenario.laziness,
        dummy_factory=(
            build_dummy_factory(scenario, mechanism)
            if scenario.protocol == "single" else None
        ),
        rng=streams.protocol,
    )

    run_bound: Optional[NetworkShuffleBound] = None
    empirical: Optional[float] = None
    if settings.epsilon0 is not None:
        run_bound = _bound_on(bundle, settings, rounds)
        # Theorem 6.1 accounts the A_all adversary, who observes the
        # realized allocation; A_single hides it (that is the protocol's
        # point), so its guarantee stays the closed-form bound only.
        if settings.protocol == "all" and settings.delta0 == 0.0:
            empirical = _empirical_epsilon(settings, protocol_result)
    return RunResult(
        scenario=scenario,
        graph=bundle.graph,
        rounds=rounds,
        mechanism=mechanism,
        values=values,
        protocol_result=protocol_result,
        bound=run_bound,
        empirical_epsilon=empirical,
        elapsed_seconds=time.perf_counter() - started,
    )
