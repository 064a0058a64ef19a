"""Registered component builders: graphs, mechanisms, faults, values.

Four registries back the Scenario API:

* ``GRAPHS`` — ``builder(rng, **params) -> Graph``;
* ``MECHANISMS`` — ``builder(**params) -> LocalRandomizer``;
* ``FAULTS`` — ``builder(**params) -> DropoutModel``;
* ``VALUES`` — ``builder(rng, num_users, **params) -> ndarray`` of one
  raw value per user: shape ``(n,)`` for scalars, ``(n, d)`` for
  vectors.

Each entry carries *example parameters* producing a small valid
instance, which the round-trip tests enumerate.  ``GRAPH_STATS`` holds
optional closed-form graph statistics so accounting-only evaluation
(:func:`repro.scenario.runner.stationary_bound`) can price a
million-user deployment without materializing the graph — exactly what
the Table 1 grid needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.auditing.auditor import (
    AuditStatistic,
    report_sum_statistic,
    topk_evidence_statistic,
    weighted_evidence_statistic,
)
from repro.datasets.registry import get_dataset
from repro.datasets.synthetic import build_dataset
from repro.estimation.mean import generate_bimodal_unit_vectors, make_dummy_factory
from repro.exceptions import ValidationError
from repro.graphs import generators
from repro.graphs.dynamic import DynamicGraphSchedule, EpochSelector
from repro.graphs.graph import Graph
from repro.scenario.spec import GraphSpec
from repro.utils.rng import spawn_rngs
from repro.ldp import (
    BinaryRandomizedResponse,
    GaussianMechanism,
    KaryRandomizedResponse,
    LaplaceMechanism,
    PrivUnit,
    UnaryEncoding,
)
from repro.netsim.faults import AdversarialDropout, IndependentDropout, NoFaults
from repro.scenario.registry import Registry
from repro.utils.validation import check_positive_int

GRAPHS = Registry("graph")
MECHANISMS = Registry("mechanism")
FAULTS = Registry("fault model")
VALUES = Registry("values")


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
@GRAPHS.register("k_regular", example={"degree": 4, "num_nodes": 64})
def _k_regular(rng: np.random.Generator, *, degree: int = 8, num_nodes: int) -> Graph:
    """Random k-regular graph — the symmetric-distribution scenario."""
    return generators.random_regular_graph(degree, num_nodes, rng=rng)


@GRAPHS.register("complete", example={"num_nodes": 32})
def _complete(rng: np.random.Generator, *, num_nodes: int) -> Graph:
    """Complete graph K_n (mixes in one step)."""
    return generators.complete_graph(num_nodes)


@GRAPHS.register("cycle", example={"num_nodes": 33})
def _cycle(rng: np.random.Generator, *, num_nodes: int) -> Graph:
    """Cycle C_n (odd n for ergodicity)."""
    return generators.cycle_graph(num_nodes)


@GRAPHS.register("star", example={"num_leaves": 31})
def _star(rng: np.random.Generator, *, num_leaves: int) -> Graph:
    """Hub-and-spokes star — the most irregular connected topology."""
    return generators.star_graph(num_leaves)


@GRAPHS.register("grid", example={"rows": 5, "cols": 5, "periodic": True})
def _grid(
    rng: np.random.Generator, *, rows: int, cols: int, periodic: bool = False
) -> Graph:
    """2-D grid / torus — the wireless-sensor-network topology."""
    return generators.grid_graph(rows, cols, periodic=periodic)


@GRAPHS.register("erdos_renyi", example={"num_nodes": 64, "edge_probability": 0.2})
def _erdos_renyi(
    rng: np.random.Generator, *, num_nodes: int, edge_probability: float
) -> Graph:
    """Erdos-Renyi G(n, p)."""
    return generators.erdos_renyi_graph(num_nodes, edge_probability, rng=rng)


@GRAPHS.register("barabasi_albert", example={"num_nodes": 64, "attachment": 3})
def _barabasi_albert(
    rng: np.random.Generator, *, num_nodes: int, attachment: int
) -> Graph:
    """Barabasi-Albert preferential attachment (heavy-tailed degrees)."""
    return generators.barabasi_albert_graph(num_nodes, attachment, rng=rng)


@GRAPHS.register(
    "watts_strogatz",
    example={"num_nodes": 64, "nearest_neighbors": 4, "rewire_probability": 0.2},
)
def _watts_strogatz(
    rng: np.random.Generator,
    *,
    num_nodes: int,
    nearest_neighbors: int,
    rewire_probability: float,
) -> Graph:
    """Connected Watts-Strogatz small-world graph."""
    return generators.watts_strogatz_graph(
        num_nodes, nearest_neighbors, rewire_probability, rng=rng
    )


@GRAPHS.register("dataset", example={"name": "deezer", "scale": 0.05})
def _dataset(
    rng: np.random.Generator,
    *,
    name: str,
    scale: float | None = None,
    seed: int | None = None,
) -> Graph:
    """Calibrated Table 4 stand-in (facebook, twitch, deezer, enron, google).

    ``seed`` pins the calibration/wiring seed as explicit spec data
    (the migrated experiments use it so their stand-ins match the
    historical ``build_dataset(name, seed=...)`` graphs bit for bit);
    ``None`` draws it from the scenario's graph stream.
    """
    if seed is None:
        seed = int(rng.integers(0, 2**31 - 1))
    return build_dataset(name, scale=scale, seed=int(seed)).graph


#: Selector kinds a schedule spec accepts.  ``round_robin`` cycles the
#: sub-graphs one round each; ``epoch`` holds each for ``block`` rounds.
_SCHEDULE_SELECTORS = ("round_robin", "epoch")


@GRAPHS.register(
    "schedule",
    example={
        "graphs": [
            {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
            {"kind": "k_regular", "params": {"degree": 6, "num_nodes": 64}},
        ],
        "selector": "epoch",
        "block": 2,
    },
)
def _schedule(
    rng: np.random.Generator,
    *,
    graphs: List[Any] | None = None,
    base: Any | None = None,
    phases: int | None = None,
    selector: str = "round_robin",
    block: int = 1,
) -> DynamicGraphSchedule:
    """Time-varying topology: sub-graph specs plus a round selector.

    Two ways to supply the topologies (exactly one required):

    * ``graphs`` — an explicit list of graph sub-specs (any registered
      kind except ``schedule`` itself), e.g. a partition-then-heal pair;
    * ``base`` + ``phases`` — seeded churn-rewiring: ``phases``
      realizations of one ``base`` spec, each built from its own child
      generator, so random generators (``k_regular``, ``erdos_renyi``,
      ``watts_strogatz``, ...) re-draw their edges every phase.

    ``selector="round_robin"`` cycles the sub-graphs one round each;
    ``selector="epoch"`` holds each in force for ``block`` consecutive
    rounds before cycling to the next.
    """
    if (graphs is None) == (base is None):
        raise ValidationError(
            "a schedule needs either 'graphs' (explicit sub-specs) or "
            "'base' + 'phases' (seeded churn), not both"
        )
    if selector not in _SCHEDULE_SELECTORS:
        raise ValidationError(
            f"selector must be one of {_SCHEDULE_SELECTORS}, got {selector!r}"
        )
    check_positive_int(block, "block")
    if selector != "epoch" and block != 1:
        raise ValidationError(
            "'block' applies to selector='epoch'; round_robin cycles one "
            "round per graph"
        )
    if graphs is not None:
        if phases is not None:
            raise ValidationError(
                "'phases' applies to 'base' churn schedules; an explicit "
                "'graphs' list fixes the phase count"
            )
        if not isinstance(graphs, (list, tuple)) or not graphs:
            raise ValidationError("'graphs' must be a non-empty list of specs")
        specs = [GraphSpec.coerce(entry) for entry in graphs]
    else:
        check_positive_int(phases, "phases")
        specs = [GraphSpec.coerce(base)] * phases
    for spec in specs:
        if spec.kind == "schedule":
            raise ValidationError("schedules cannot nest schedule sub-specs")
    # One child generator per phase: sub-graphs draw from independent
    # streams, so inserting/removing a phase never shifts the others.
    children = spawn_rngs(rng, len(specs))
    built = [
        GRAPHS.build(spec.kind, child, **spec.params)
        for spec, child in zip(specs, children)
    ]
    if selector == "epoch" and block > 1:
        return DynamicGraphSchedule(
            built, selector=EpochSelector(block, len(built))
        )
    return DynamicGraphSchedule(built)


# ----------------------------------------------------------------------
# Closed-form graph statistics (no materialization)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphStats:
    """What accounting-only evaluation needs: ``n`` and ``sum_i pi_i^2``."""

    num_nodes: int
    stationary_collision: float

    @property
    def gamma(self) -> float:
        """Irregularity ``Gamma_G = n sum_i pi_i^2``."""
        return self.num_nodes * self.stationary_collision


#: Closed-form stats exist only for graph configurations that are
#: (provably, or with overwhelming probability) *ergodic* — the same
#: precondition ``require_ergodic`` enforces on every materialized
#: accounting path (Theorem 4.3).  On a non-ergodic graph the walk
#: never approaches stationarity, so an at-stationarity price would be
#: unsound; those configurations are refused, never silently priced.
GRAPH_STATS = Registry("graph statistics")


@GRAPH_STATS.register("k_regular", example={"degree": 4, "num_nodes": 64})
def _k_regular_stats(*, degree: int = 8, num_nodes: int) -> GraphStats:
    """Regular graph: uniform pi, Gamma = 1.

    Random d-regular graphs with ``d >= 3`` are connected and
    non-bipartite asymptotically almost surely; ``d <= 2`` realizations
    (cycle unions) can be neither, so they have no closed form —
    materialize via ``bound()`` to verify ergodicity instead.
    """
    check_positive_int(num_nodes, "num_nodes")
    if degree < 3:
        raise ValidationError(
            f"no closed-form stats for degree-{degree} regular graphs "
            "(not reliably ergodic); use bound() to materialize and verify"
        )
    return GraphStats(num_nodes, 1.0 / num_nodes)


@GRAPH_STATS.register("complete", example={"num_nodes": 32})
def _complete_stats(*, num_nodes: int) -> GraphStats:
    """K_n, n >= 3 (K_2 is bipartite, K_1 has no edges)."""
    check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 3:
        raise ValidationError(
            f"K_{num_nodes} is not ergodic; complete-graph stats need n >= 3"
        )
    return GraphStats(num_nodes, 1.0 / num_nodes)


@GRAPH_STATS.register("cycle", example={"num_nodes": 33})
def _cycle_stats(*, num_nodes: int) -> GraphStats:
    """Odd cycle (even cycles are bipartite, hence non-ergodic)."""
    check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 3 or num_nodes % 2 == 0:
        raise ValidationError(
            f"C_{num_nodes} is not ergodic; cycle stats need odd n >= 3"
        )
    return GraphStats(num_nodes, 1.0 / num_nodes)


@GRAPH_STATS.register("grid", example={"rows": 5, "cols": 5, "periodic": True})
def _grid_stats(*, rows: int, cols: int, periodic: bool = False) -> GraphStats:
    """Full torus with at least one odd side: 4-regular, uniform pi.

    Open grids are bipartite, and an even x even torus is too (both
    wrap cycles even); neither is ergodic, so neither has a closed
    form.
    """
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    if not (periodic and rows > 2 and cols > 2):
        raise ValidationError(
            "grid stats require a full torus (periodic, both sides > 2); "
            "open grids are bipartite and not ergodic"
        )
    if rows % 2 == 0 and cols % 2 == 0:
        raise ValidationError(
            f"{rows}x{cols} torus is bipartite (both sides even), not ergodic"
        )
    n = rows * cols
    return GraphStats(n, 1.0 / n)


@GRAPH_STATS.register("dataset", example={"name": "twitch"})
def _dataset_stats(
    *, name: str, scale: float | None = None, seed: int | None = None
) -> GraphStats:
    """Published (n, Gamma_G) of the Table 4 dataset at ``scale``.

    ``seed`` is accepted (and irrelevant) so a materializable dataset
    spec with a pinned wiring seed still prices through the closed form.
    """
    spec = get_dataset(name)
    n = spec.scaled_nodes(spec.default_scale if scale is None else scale)
    return GraphStats(n, spec.gamma / n)


@GRAPH_STATS.register("gamma", example={"gamma": 1.0, "num_nodes": 10_000})
def _gamma_stats(*, gamma: float, num_nodes: int) -> GraphStats:
    """Abstract stationary-limit graph: just ``(n, Gamma_G)``.

    Figure 8's parameter study sweeps ``Gamma`` and ``n`` directly with
    no concrete topology; this kind prices such grids through
    ``stationary_bound`` and is deliberately *not* materializable
    (``GRAPHS`` has no ``gamma`` entry — there is no graph to build).
    """
    check_positive_int(num_nodes, "num_nodes")
    if not 1.0 <= gamma <= num_nodes:
        raise ValidationError(
            f"Gamma_G = n sum pi^2 lies in [1, n] (Cauchy-Schwarz / "
            f"sum pi^2 <= 1); got {gamma} at n={num_nodes}"
        )
    return GraphStats(num_nodes, gamma / num_nodes)


# ----------------------------------------------------------------------
# LDP mechanisms
# ----------------------------------------------------------------------
@MECHANISMS.register("rr", example={"epsilon": 1.0})
def _rr(*, epsilon: float) -> BinaryRandomizedResponse:
    """Binary randomized response."""
    return BinaryRandomizedResponse(epsilon)


@MECHANISMS.register("kary_rr", example={"epsilon": 1.0, "num_symbols": 5})
def _kary_rr(*, epsilon: float, num_symbols: int) -> KaryRandomizedResponse:
    """k-ary randomized response."""
    return KaryRandomizedResponse(epsilon, num_symbols)


@MECHANISMS.register("laplace", example={"epsilon": 1.0})
def _laplace(
    *, epsilon: float, lower: float = 0.0, upper: float = 1.0
) -> LaplaceMechanism:
    """Laplace mechanism on a bounded interval."""
    return LaplaceMechanism(epsilon, lower, upper)


@MECHANISMS.register("gaussian", example={"epsilon": 1.0, "delta": 1e-8})
def _gaussian(
    *, epsilon: float, delta: float, lower: float = 0.0, upper: float = 1.0
) -> GaussianMechanism:
    """Gaussian mechanism ((eps0, delta0)-LDP)."""
    return GaussianMechanism(epsilon, delta, lower, upper)


@MECHANISMS.register("unary", example={"epsilon": 1.0, "num_symbols": 5})
def _unary(*, epsilon: float, num_symbols: int) -> UnaryEncoding:
    """Unary encoding (RAPPOR-style histogram randomizer)."""
    return UnaryEncoding(epsilon, num_symbols)


@MECHANISMS.register("privunit", example={"epsilon": 2.0, "dimension": 8})
def _privunit(
    *, epsilon: float, dimension: int, budget_split: float = 0.5
) -> PrivUnit:
    """PrivUnit unit-vector randomizer (Figure 9)."""
    return PrivUnit(epsilon, dimension, budget_split=budget_split)


# ----------------------------------------------------------------------
# Fault models
# ----------------------------------------------------------------------
@FAULTS.register("none", example={})
def _no_faults() -> NoFaults:
    """Every user online every round."""
    return NoFaults()


@FAULTS.register("independent", example={"probability": 0.2})
def _independent(*, probability: float) -> IndependentDropout:
    """Independent per-round dropout (lazy-walk fault model)."""
    return IndependentDropout(probability)


@FAULTS.register("adversarial", example={"offline_users": [0, 1]})
def _adversarial(*, offline_users: List[int]) -> AdversarialDropout:
    """A fixed set of users permanently offline."""
    return AdversarialDropout(np.asarray(offline_users, dtype=np.int64))


# ----------------------------------------------------------------------
# Workload values
# ----------------------------------------------------------------------
@VALUES.register("zeros", example={})
def _zeros(rng: np.random.Generator, num_users: int) -> np.ndarray:
    """Every user holds 0 (privacy-only payloads)."""
    return np.zeros(num_users, dtype=np.int64)


@VALUES.register("constant", example={"value": 1})
def _constant(rng: np.random.Generator, num_users: int, *, value: Any) -> np.ndarray:
    """Every user holds the same value (a vector value gives ``(n, d)``)."""
    return np.full((num_users, *np.shape(value)), value)


@VALUES.register("bernoulli", example={"rate": 0.3})
def _bernoulli(
    rng: np.random.Generator, num_users: int, *, rate: float
) -> np.ndarray:
    """One {0, 1} bit per user, i.i.d. with P(1) = rate."""
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(f"rate must lie in [0, 1], got {rate}")
    return (rng.random(num_users) < rate).astype(np.int64)


@VALUES.register("choice", example={"num_options": 5})
def _choice(
    rng: np.random.Generator,
    num_users: int,
    *,
    num_options: int,
    probabilities: List[float] | None = None,
) -> np.ndarray:
    """One symbol in [0, num_options) per user (uniform or weighted)."""
    check_positive_int(num_options, "num_options")
    if probabilities is not None:
        if len(probabilities) != num_options:
            raise ValidationError(f"need {num_options} probabilities, got {len(probabilities)}")
        weights = np.asarray(probabilities, dtype=np.float64)
        # NaN fails ``>= 0``; the sum tolerance is Generator.choice's own.
        tolerance = math.sqrt(np.finfo(np.float64).eps)
        if not np.all(weights >= 0.0) or abs(math.fsum(weights) - 1.0) > tolerance:
            raise ValidationError(
                f"probabilities must be non-negative and sum to 1, got {probabilities}"
            )
    return rng.choice(num_options, size=num_users, p=probabilities)


@VALUES.register("bimodal_unit_vectors", example={"dimension": 8})
def _bimodal_unit_vectors(
    rng: np.random.Generator,
    num_users: int,
    *,
    dimension: int = 200,
    low_mean: float = 1.0,
    high_mean: float = 10.0,
) -> np.ndarray:
    """The paper's Section 5.6 population: normalized bimodal samples.

    First half ``N(low_mean, 1)^d``, second half ``N(high_mean, 1)^d``,
    every row normalized to the unit sphere — the Figure 9 workload
    PrivUnit perturbs.
    """
    return generate_bimodal_unit_vectors(
        num_users, dimension, low_mean=low_mean, high_mean=high_mean, rng=rng
    )


@VALUES.register("normal", example={"mean": 0.5, "std": 0.1})
def _normal(
    rng: np.random.Generator,
    num_users: int,
    *,
    mean: float,
    std: float,
    lower: float | None = None,
    upper: float | None = None,
) -> np.ndarray:
    """One N(mean, std) draw per user, optionally clipped to [lower, upper]."""
    if std < 0:
        raise ValidationError(f"std must be non-negative, got {std}")
    draws = rng.normal(mean, std, num_users)
    if lower is not None or upper is not None:
        draws = np.clip(draws, lower, upper)
    return draws


# ----------------------------------------------------------------------
# Dummy-report factories (A_single, Algorithm 2 line 10)
# ----------------------------------------------------------------------
#: Builders have signature ``builder(mechanism, **params) -> draw``
#: where ``mechanism`` is the scenario's built ``A_ldp`` (or ``None``)
#: and ``draw(rng, count)`` returns ``count`` dummy payloads as one
#: array, bit for bit ``count`` one-dummy draws.  The factory draws from
#: the protocol generator exactly where the default ``A_ldp(0)`` dummies
#: would, so swapping factories never shifts other draws.
DUMMIES = Registry("dummy factory")


@DUMMIES.register("mechanism_zero", example={})
def _mechanism_zero(mechanism, *, value: Any = 0):
    """The Algorithm 2 default, explicit: each dummy is ``A_ldp(value)``."""
    if mechanism is None:
        raise ValidationError(
            "the 'mechanism_zero' dummy factory randomizes a constant "
            "through the scenario mechanism; this scenario has none"
        )

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        return mechanism.randomize_batch([value] * count, rng)

    return draw


@DUMMIES.register("privunit_normal", example={"mean": 5.0})
def _privunit_normal(mechanism, *, mean: float = 5.0):
    """Figure 9's dummy: PrivUnit of a normalized ``N(mean, 1)^d`` draw."""
    if not isinstance(mechanism, PrivUnit):
        raise ValidationError(
            "the 'privunit_normal' dummy factory perturbs a unit vector "
            "through PrivUnit; pair it with mechanism kind 'privunit' "
            f"(got {type(mechanism).__name__ if mechanism else None})"
        )
    return make_dummy_factory(mechanism, dummy_mean=mean)


# ----------------------------------------------------------------------
# Audit attacker statistics
# ----------------------------------------------------------------------
#: Builders have signature ``builder(graph, rounds, laziness, **params)
#: -> AuditStatistic`` — a callable mapping batched ``(payloads,
#: holders)`` arrays of shape ``(trials, n)`` to one scalar of attacker
#: evidence per trial (see :mod:`repro.auditing.auditor`).
AUDIT_STATISTICS = Registry("audit statistic")


@AUDIT_STATISTICS.register("weighted_evidence", example={})
def _weighted_evidence(
    graph: Graph, rounds: int, laziness: float, *, victim: int = 0
) -> AuditStatistic:
    """The paper's informed adversary: payloads weighted by ``P^G_1(t)``."""
    return weighted_evidence_statistic(
        graph, rounds, laziness=laziness, victim=victim
    )


@AUDIT_STATISTICS.register("topk_evidence", example={"top_k": 8})
def _topk_evidence(
    graph: Graph, rounds: int, laziness: float, *, victim: int = 0, top_k: int = 8
) -> AuditStatistic:
    """Coarser adversary: payload mass at the ``top_k`` likeliest nodes."""
    return topk_evidence_statistic(
        graph, rounds, laziness=laziness, victim=victim, top_k=top_k
    )


@AUDIT_STATISTICS.register("report_sum", example={})
def _report_sum(
    graph: Graph, rounds: int, laziness: float, *, victim: int = 0
) -> AuditStatistic:
    """Position-blind adversary: plain payload sum (ablation floor)."""
    return report_sum_statistic(graph, rounds)


#: All registries by scenario field name, for introspection/CLI listings.
REGISTRIES: Dict[str, Registry] = {
    "graph": GRAPHS,
    "mechanism": MECHANISMS,
    "faults": FAULTS,
    "values": VALUES,
    "dummies": DUMMIES,
    "audit": AUDIT_STATISTICS,
}

#: Registries whose runtime registrations the sweep engine records and
#: replays into pool workers (``GRAPH_STATS`` rides along: a runtime
#: graph kind may pair with a closed form).  Keys are stable replay
#: labels, not scenario fields.
REPLAYABLE_REGISTRIES: Dict[str, Registry] = {
    **REGISTRIES,
    "graph_stats": GRAPH_STATS,
}

# Everything registered above ships with the library.  Snapshot the key
# sets so the sweep engine can tell runtime registrations (which pool
# workers need replayed) apart from built-ins (which workers re-import).
for _registry in REPLAYABLE_REGISTRIES.values():
    _registry.mark_builtin()
del _registry
