"""The distinguishing-game auditor.

Workflow:

1. fix adjacent datasets ``D`` and ``D'`` differing in user 1's value;
2. run the mechanism ``trials`` times on each, collecting a scalar
   *test statistic* per run (the attacker's evidence);
3. sweep thresholds; each threshold is a hypothesis test whose
   ``(FPR, FNR)`` must satisfy the DP region inequalities
   ``FPR + e^eps FNR >= 1 - delta`` and ``FNR + e^eps FPR >= 1 - delta``;
4. report the largest ``eps`` certified by any threshold.

The resulting ``eps_hat`` is a statistically *estimated* lower bound:
the false-positive rate enters through its one-sided Clopper-Pearson
*upper* bound and the true-positive rate through its *lower* bound, so
a spurious tail threshold cannot certify a loss the mechanism does not
have.  ``min_count`` guards the total per-world trial count (too few
samples make even the confidence bounds meaningless); audits need at
least that many trials in each world.

For network shuffling the attacker statistic implemented here is the
paper's central adversary at its most informed: it knows the position
distribution ``P^G_1(t)`` of the victim's report and weighs every
delivered payload by the probability the victim's report sits with its
deliverer.  At ``t = 0`` this recovers the raw randomized response
(``eps_hat ~ eps0``); as ``t`` grows the weights flatten and the
measured privacy loss collapses — amplification made visible.

Monte Carlo engine
------------------
Everything is trial-batched.  Two engines share the same estimator
(tokens and trials are jointly independent, so any sampler with the
exact per-token ``t``-step law produces the same statistic
distribution):

* ``tiled`` simulates all ``trials x n`` token walks in a single flat
  :func:`~repro.graphs.walks.simulate_trial_walks` call (tiled start
  nodes), draws the randomizer flips for every trial at once, and
  reduces to per-trial statistics with one segmented (axis-1)
  reduction.  Cost scales with ``rounds``.  It walks a static graph
  and a dynamic schedule alike.
* ``kernel`` reads the ``t``-step transition kernel ``M^t`` once
  (one :class:`~repro.scenario.profile.ProfileStore` panel, shared by
  both worlds) and samples every token's final holder directly from
  its kernel row by vectorized rejection against a scaled-uniform
  proposal — after mixing the rows are nearly flat, so a couple of
  passes settle all ``trials x n`` tokens and the sampling cost is
  *independent of* ``rounds``.  Non-victim payloads are drawn as fair coins directly
  (binary RR applied to a uniform bit is a uniform bit — exactly the
  same law, one fewer pass over the batch).

:func:`resolve_method` picks the engine from what it observes:
``kernel`` for mixed walks on static graphs small enough to hold the
dense kernel, ``tiled`` otherwise.  No caller option overrides it.  The
threshold sweep is shared: sorted-array ``searchsorted`` counts plus
*vectorized* Clopper-Pearson bounds (``beta.ppf`` on arrays) —
identical ``(eps, threshold)`` on the same statistics arrays as the
scalar sweep, orders of magnitude fewer scipy calls.

Seed-stream contract: ``audit_network_shuffle`` derives one child
generator per world (``D`` first, then ``D'``) with the SeedSequence
spawning protocol.  The per-trial reference loop,
:func:`repro.testing.oracle.looped_audit`, uses the same per-world
children but draws trial by trial, so it agrees with both engines
statistically (same estimator, same trial count) without being
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule, GraphLike, dense_panel
from repro.graphs.graph import Graph
from repro.graphs.walks import position_distribution, simulate_trial_walks
from repro.ldp.base import LocalRandomizer
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_delta,
    check_node_index,
    check_non_negative_int,
    check_positive_int,
)

#: A trial-batched attacker statistic: maps ``(payloads, holders)``
#: arrays of shape ``(trials, n)`` to one scalar of evidence per trial.
AuditStatistic = Callable[[np.ndarray, np.ndarray], np.ndarray]


#: Cap on ``trials * n`` tokens simulated per flat batch; audits larger
#: than this chunk the trial axis so memory stays bounded.
_MAX_BATCH_TOKENS = 8_000_000


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one distinguishing-game audit."""

    epsilon_lower_bound: float
    delta: float
    trials: int
    best_threshold: float
    mechanism: str

    def certifies_amplification(self, epsilon0: float) -> bool:
        """Whether the measured loss sits strictly below the local budget."""
        return self.epsilon_lower_bound < epsilon0

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest for reporting/CLI output."""
        return {
            "mechanism": self.mechanism,
            "trials": self.trials,
            "delta": self.delta,
            "epsilon_lower_bound": self.epsilon_lower_bound,
            "best_threshold": self.best_threshold,
        }


def _clopper_pearson_upper(
    successes: np.ndarray, trials: int, confidence: float
) -> np.ndarray:
    """One-sided Clopper-Pearson upper bound per success count."""
    from scipy import stats

    successes = np.asarray(successes, dtype=np.float64)
    result = np.ones_like(successes)
    interior = successes < trials
    result[interior] = stats.beta.ppf(
        confidence, successes[interior] + 1.0, trials - successes[interior]
    )
    return result


def _clopper_pearson_lower(
    successes: np.ndarray, trials: int, confidence: float
) -> np.ndarray:
    """One-sided Clopper-Pearson lower bound per success count."""
    from scipy import stats

    successes = np.asarray(successes, dtype=np.float64)
    result = np.zeros_like(successes)
    interior = successes > 0
    result[interior] = stats.beta.ppf(
        1.0 - confidence, successes[interior], trials - successes[interior] + 1.0
    )
    return result


def epsilon_lower_bound(
    statistics_d: np.ndarray,
    statistics_d_prime: np.ndarray,
    delta: float,
    *,
    min_count: int = 10,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Best certified ``eps`` over all thresholds; returns ``(eps, threshold)``.

    Statistically sound version: the false-positive rate enters through
    its Clopper-Pearson *upper* bound and the true-positive rate through
    its *lower* bound, so a spurious tail threshold cannot certify a
    loss the mechanism does not have (the classic auditing pitfall).
    Both test orientations (claim on large / small statistics) and both
    world orderings are evaluated, so orientation does not matter.

    The sweep is fully vectorized: flagged counts for every threshold
    come from two ``searchsorted`` calls on the sorted statistics, and
    all Clopper-Pearson bounds are batched ``beta.ppf`` array calls —
    eight array evaluations total instead of eight scalar ones per
    threshold.  Results are bit-identical to the scalar per-threshold
    sweep (same counts, same ``beta.ppf`` values, same first-maximum
    tie-breaking).
    """
    check_delta(delta, allow_zero=True)
    a = np.asarray(statistics_d, dtype=np.float64)
    b = np.asarray(statistics_d_prime, dtype=np.float64)
    if a.size < min_count or b.size < min_count:
        raise ValidationError(
            f"need at least {min_count} trials per world, got {a.size}/{b.size}"
        )
    # Subsample the threshold grid for speed on large audits.
    pooled = np.unique(np.concatenate([a, b]))
    if pooled.size > 512:
        pooled = pooled[:: pooled.size // 512]

    # Flagged-by-">" counts for every threshold at once: the number of
    # statistics strictly above each pooled value.
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    flagged_a = a.size - np.searchsorted(a_sorted, pooled, side="right")
    flagged_b = b.size - np.searchsorted(b_sorted, pooled, side="right")

    # The four (count, trials) pairs the orientation x ordering grid
    # touches, each bounded once as FPR-upper and once as TPR-lower.
    upper_a = _clopper_pearson_upper(flagged_a, a.size, confidence)
    upper_b = _clopper_pearson_upper(flagged_b, b.size, confidence)
    upper_ac = _clopper_pearson_upper(a.size - flagged_a, a.size, confidence)
    upper_bc = _clopper_pearson_upper(b.size - flagged_b, b.size, confidence)
    lower_a = _clopper_pearson_lower(flagged_a, a.size, confidence)
    lower_b = _clopper_pearson_lower(flagged_b, b.size, confidence)
    lower_ac = _clopper_pearson_lower(a.size - flagged_a, a.size, confidence)
    lower_bc = _clopper_pearson_lower(b.size - flagged_b, b.size, confidence)

    # Rows: (orientation ">", null=D), (">", null=D'), ("<=", null=D),
    # ("<=", null=D') — candidate eps = log((TPR_lower - delta) / FPR_upper).
    numerators = np.stack([lower_b, lower_a, lower_bc, lower_ac]) - delta
    denominators = np.stack([upper_a, upper_b, upper_ac, upper_bc])
    valid = (numerators > 0.0) & (denominators > 0.0)
    candidates = np.full(numerators.shape, -np.inf)
    np.log(
        np.divide(numerators, denominators, where=valid, out=np.ones_like(numerators)),
        where=valid,
        out=candidates,
    )

    per_threshold = candidates.max(axis=0)
    best_eps = float(per_threshold.max(initial=-np.inf))
    if best_eps <= 0.0:
        return 0.0, float(pooled[0])
    # The scalar sweep only replaces the incumbent on a strict
    # improvement, so ties resolve to the earliest threshold.
    return best_eps, float(pooled[int(np.argmax(per_threshold))])


# ----------------------------------------------------------------------
# Attacker statistics (trial-batched)
# ----------------------------------------------------------------------
def weighted_evidence_statistic(
    graph: GraphLike,
    rounds: int,
    *,
    laziness: float = 0.0,
    victim: int = 0,
) -> AuditStatistic:
    """The paper's informed central adversary.

    Weighs each delivered payload by ``P^G_victim(t)`` at its deliverer:
    the probability the victim's report is the one that deliverer holds.
    On a dynamic schedule the weights come from the exact scheduled
    evolution — the adversary knows the topology sequence.
    """
    weights = position_distribution(graph, victim, rounds, laziness=laziness)

    def statistic(payloads: np.ndarray, holders: np.ndarray) -> np.ndarray:
        return (payloads * weights[holders]).sum(axis=1)

    return statistic


def topk_evidence_statistic(
    graph: GraphLike,
    rounds: int,
    *,
    laziness: float = 0.0,
    victim: int = 0,
    top_k: int = 8,
) -> AuditStatistic:
    """A cruder adversary: payload mass at the ``top_k`` likeliest nodes.

    Hard thresholding of the position distribution — between the fully
    weighted attacker and the position-blind one, useful for measuring
    how much the attack degrades with coarser side information.
    """
    check_positive_int(top_k, "top_k")
    weights = position_distribution(graph, victim, rounds, laziness=laziness)
    top_k = min(top_k, graph.num_nodes)
    in_top = np.zeros(graph.num_nodes, dtype=bool)
    in_top[np.argpartition(weights, -top_k)[-top_k:]] = True

    def statistic(payloads: np.ndarray, holders: np.ndarray) -> np.ndarray:
        return (payloads * in_top[holders]).sum(axis=1)

    return statistic


def report_sum_statistic(graph: GraphLike, rounds: int, **_: Any) -> AuditStatistic:
    """The position-blind adversary: sum of all delivered payloads.

    Ignores where reports land, so shuffling grants it nothing beyond
    the honest-majority noise floor — the ablation baseline a sound
    audit should measure near zero against.
    """

    def statistic(payloads: np.ndarray, holders: np.ndarray) -> np.ndarray:
        return payloads.sum(axis=1, dtype=np.float64)

    return statistic


# ----------------------------------------------------------------------
# Audits
# ----------------------------------------------------------------------
def _world_reports(
    randomizer: LocalRandomizer,
    value,
    trials: int,
    generator: np.random.Generator,
) -> list:
    """``trials`` reports of one value, batched when the mechanism can.

    A mechanism that overrides :meth:`LocalRandomizer.randomize_batch`
    draws all of a world's reports in one vectorized call instead of
    ``trials`` Python round-trips.  Batch draws are stream-exact (see
    :meth:`LocalRandomizer.randomize_batch`), so the batched world is
    bit-identical to the per-trial loop; k-ary RR, the one documented
    exception, matches it in law only.  The base-class default is
    itself the per-report loop, so falling through it changes nothing.
    """
    return list(randomizer.randomize_batch([value] * trials, generator))


def audit_local_randomizer(
    randomizer: LocalRandomizer,
    value_d,
    value_d_prime,
    *,
    trials: int = 5000,
    delta: float = 0.0,
    statistic: Optional[Callable[[object], float]] = None,
    rng: RngLike = None,
) -> AuditResult:
    """Audit a local randomizer on a pair of inputs.

    The default statistic is the (float-coerced) report itself.  Each
    world's ``trials`` reports are drawn through the mechanism's
    ``randomize_batch`` (one vectorized call for mechanisms that
    implement it, the per-report loop otherwise).
    """
    check_positive_int(trials, "trials")
    generator = ensure_rng(rng)
    extract = statistic if statistic is not None else float
    stats_d = np.array([
        extract(report)
        for report in _world_reports(randomizer, value_d, trials, generator)
    ])
    stats_d_prime = np.array([
        extract(report)
        for report in _world_reports(randomizer, value_d_prime, trials, generator)
    ])
    eps, threshold = epsilon_lower_bound(stats_d, stats_d_prime, delta)
    return AuditResult(
        epsilon_lower_bound=eps,
        delta=delta,
        trials=trials,
        best_threshold=threshold,
        mechanism=f"local:{type(randomizer).__name__}",
    )


def _trial_chunks(trials: int, num_nodes: int):
    """Split the trial axis so no batch exceeds ``_MAX_BATCH_TOKENS``."""
    batch = max(1, min(trials, _MAX_BATCH_TOKENS // max(1, num_nodes)))
    done = 0
    while done < trials:
        chunk = min(batch, trials - done)
        yield done, chunk
        done += chunk


def _tiled_world_statistics(
    graph: GraphLike,
    randomizer: BinaryRandomizedResponse,
    rounds: int,
    trials: int,
    victim: int,
    victim_bit: int,
    statistic: AuditStatistic,
    laziness: float,
    generator: np.random.Generator,
) -> np.ndarray:
    """All of one world's trial statistics via flat tiled walk batches."""
    n = graph.num_nodes
    starts = np.arange(n, dtype=np.int64)
    out = np.empty(trials, dtype=np.float64)
    for done, chunk in _trial_chunks(trials, n):
        bits = generator.integers(0, 2, size=(chunk, n))
        bits[:, victim] = victim_bit
        payloads = randomizer.randomize_batch(bits, generator)
        holders = simulate_trial_walks(
            graph, starts, rounds, chunk, laziness=laziness, rng=generator
        )
        out[done:done + chunk] = statistic(payloads, holders)
    return out


class _KernelTable:
    """One dense walk kernel ``K = M^q`` with its rejection tables."""

    def __init__(self, kernel_t: np.ndarray):
        self.rows = np.ascontiguousarray(kernel_t.T)
        self.accept_flat = (self.rows / self.rows.max(axis=1)[:, None]).ravel()
        self._cdf_flat: Optional[np.ndarray] = None

    def inverse_cdf(
        self, token_rows: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Exact per-row inverse-CDF draws for rejection stragglers."""
        n = self.rows.shape[0]
        if self._cdf_flat is None:
            cdf = np.cumsum(self.rows, axis=1)
            cdf[:, -1] = 1.0
            # Row-offset flattening turns n per-row searches into one.
            self._cdf_flat = (cdf + np.arange(n)[:, np.newaxis]).ravel()
        queries = generator.random(token_rows.size) + token_rows
        flat = np.searchsorted(self._cdf_flat, queries, side="right")
        return np.minimum(flat - token_rows * n, n - 1)


class _KernelSampler:
    """Endpoint sampler from the dense ``t``-step walk kernel.

    Reads ``K = M^t`` (row ``i`` = the exact law of a walk from ``i``
    after ``t`` rounds) from the ``t``-step profile, then samples final
    holders by rejection: propose a uniform node ``j``, accept with
    probability ``K[i, j] / max_j K[i, j]``.  The acceptance table is
    exact, so the sampled law is exactly ``K[i, :]`` — the estimator is
    unchanged; only the draw order differs from step simulation.  After
    mixing, rows are nearly flat (per-row rejection constant
    ``c_i = n max_j K[i, j] -> 1``), so a handful of vectorized passes
    settle every token regardless of ``rounds``.  Unmixed rows are
    guarded: after ``_MAX_REJECTION_PASSES`` the stragglers fall back
    to exact inverse-CDF sampling.

    Deeply mixed chains exploit Chapman-Kolmogorov composition:
    ``M^t = M^(q_1) ... M^(q_s)`` with ``sum q_i = t``, so the walk is
    sampled as ``s`` short-kernel draws from powers the evolution passes
    through anyway — the build evolves ``~t/s`` rounds instead of ``t``
    for the same exact law.  The build probes its mean rejection
    constant at t/4, t/3 and t/2 and stops as soon as composition is
    viable (every stage kernel must itself be mixed, or its rejection
    passes would dominate what the shorter build saves).

    Every stage kernel ``(M^e)^T`` is the one-block panel of a
    :class:`~repro.scenario.profile.ProfileStore`, read through
    ``panel(steps)``.  The scenario layer hands in its graph bundle's
    store, so an ascending rounds-axis audit sweep continues the
    longest evolution so far instead of restarting it; standalone
    builds keep a private store.  Below a longer kept evolution (a
    descending sweep) the build continues from its own previous panel,
    so it evolves no more rounds than a cold build.  A resumed panel
    applies exactly the products a cold build would, so warm and cold
    builds are bit-identical.
    """

    _MAX_REJECTION_PASSES = 48
    #: Mean rejection constant below which a kernel power counts as
    #: mixed enough to serve as a composition stage.
    _MIXED_REJECTION_MEAN = 1.35
    #: Composition cap: stages trade one kernel draw per token each, so
    #: past a few of them the sampling cost eats the build saving.
    _MAX_STAGES = 4

    def __init__(
        self,
        graph: Graph,
        rounds: int,
        laziness: float,
        *,
        panel: Optional[Callable[..., tuple]] = None,
    ):
        n = graph.num_nodes
        if panel is None:
            from repro.scenario.profile import ProfileStore

            panel = ProfileStore(
                graph, identity="kernel", block_size=n, laziness=laziness,
                spill=False,
            ).panel

        # The build asks for non-decreasing exponents; carrying the last
        # panel lets each continue from it when the store keeps only a
        # longer evolution (a descending rounds axis).
        last = None

        def power(exponent: int) -> np.ndarray:
            """``(M^exponent)^T``: column ``i`` is the walk from ``i``."""
            nonlocal last
            block, dropped = panel(exponent, since=last)
            last = (block, dropped, exponent)
            return dense_panel(block)

        # Probe mixedness at the useful split exponents (t/4, t/3, t/2)
        # and stop at the first power that supports composition — the
        # more stages, the shorter the dominant build.
        num_stages = 1
        for candidate in range(self._MAX_STAGES, 1, -1):
            base_exponent = rounds // candidate
            if base_exponent < 8:
                continue
            # K's per-row maxima are the panel's per-column maxima.
            maxima = power(base_exponent).max(axis=0)
            if n * maxima.mean() <= self._MIXED_REJECTION_MEAN:
                num_stages = candidate
                break
        base, extra = divmod(rounds, num_stages)
        exponents = [base + 1] * extra + [base] * (num_stages - extra)
        tables = {
            exponent: _KernelTable(power(exponent))
            for exponent in sorted(set(exponents))
        }
        self.num_nodes = n
        self._stages = [tables[exponent] for exponent in exponents]
        self._tiled_base: Optional[np.ndarray] = None

    def _tiled_row_base(self, size: int) -> np.ndarray:
        """Flat-table row offsets for the tiled (trial-major) token layout."""
        n = self.num_nodes
        if self._tiled_base is None or self._tiled_base.size < size:
            self._tiled_base = np.tile(
                np.arange(n, dtype=np.int64) * n, size // n
            )
        return self._tiled_base[:size]

    def _stage(
        self,
        table: _KernelTable,
        row_base: np.ndarray,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """One kernel draw per token; ``row_base = n * start_row``.

        The first rejection pass runs without index indirection (after
        mixing it settles ~all tokens); later passes compress to the
        surviving stragglers.
        """
        n = self.num_nodes
        size = row_base.size
        holders = generator.integers(0, n, size=size)
        rejected = (
            generator.random(size) >= table.accept_flat[row_base + holders]
        )
        pending = np.flatnonzero(rejected)
        for _ in range(self._MAX_REJECTION_PASSES - 1):
            if not pending.size:
                break
            proposals = generator.integers(0, n, size=pending.size)
            accept = (
                generator.random(pending.size)
                < table.accept_flat[row_base[pending] + proposals]
            )
            holders[pending[accept]] = proposals[accept]
            pending = pending[~accept]
        if pending.size:
            holders[pending] = table.inverse_cdf(
                row_base[pending] // n, generator
            )
        return holders

    def sample_tiled(
        self, trials: int, generator: np.random.Generator
    ) -> np.ndarray:
        """Final holders of ``trials`` tiled token batches, flat.

        Token ``k`` starts at node ``k % n``; each stage advances every
        token by one half-kernel draw.
        """
        holders: Optional[np.ndarray] = None
        for table in self._stages:
            if holders is None:
                row_base = self._tiled_row_base(trials * self.num_nodes)
            else:
                row_base = holders * self.num_nodes
            holders = self._stage(table, row_base, generator)
        return holders


def _kernel_world_statistics(
    sampler: _KernelSampler,
    randomizer: BinaryRandomizedResponse,
    trials: int,
    victim: int,
    victim_bit: int,
    statistic: AuditStatistic,
    generator: np.random.Generator,
) -> np.ndarray:
    """One world's trial statistics via direct kernel endpoint sampling."""
    n = sampler.num_nodes
    out = np.empty(trials, dtype=np.float64)
    for done, chunk in _trial_chunks(trials, n):
        # Binary RR of an i.i.d. fair coin is an i.i.d. fair coin, so
        # non-victim payloads are drawn directly; only the victim's
        # report goes through the RR channel.
        payloads = generator.integers(0, 2, size=(chunk, n), dtype=np.int8)
        truthful = generator.random(chunk) < randomizer.truth_probability
        payloads[:, victim] = np.where(truthful, victim_bit, 1 - victim_bit)
        holders = sampler.sample_tiled(chunk, generator)
        out[done:done + chunk] = statistic(payloads, holders.reshape(chunk, n))
    return out


#: Largest graph whose dense ``t``-step kernel the kernel engine will
#: hold in memory (n^2 float64 = 32 MiB at the cap).
KERNEL_MAX_NODES = 2048
#: Rounds below which walks are too unmixed for rejection sampling to
#: pay off; the auditor step-simulates instead (cheap at small t).
_KERNEL_MIN_ROUNDS = 8


def resolve_method(graph: GraphLike, rounds: int) -> str:
    """The Monte Carlo engine ``audit_network_shuffle`` will run.

    ``"kernel"`` for mixed walks (``rounds >= 8``) on static graphs
    small enough to hold the dense ``M^t`` (:data:`KERNEL_MAX_NODES`),
    ``"tiled"`` otherwise: a dynamic schedule has no single ``t``-step
    kernel, so it always step-simulates.

    This is the public planning hook: callers that pre-build or memoize
    kernel samplers (the scenario layer) ask here instead of duplicating
    the heuristic.
    """
    if (
        not isinstance(graph, DynamicGraphSchedule)
        and graph.num_nodes <= KERNEL_MAX_NODES
        and rounds >= _KERNEL_MIN_ROUNDS
    ):
        return "kernel"
    return "tiled"


def audit_network_shuffle(
    graph: GraphLike,
    epsilon0: float,
    rounds: int,
    *,
    trials: int = 2000,
    delta: float = DEFAULT_CONFIG.delta,
    laziness: float = 0.0,
    victim: int = 0,
    statistic: Optional[AuditStatistic] = None,
    confidence: float = 0.95,
    kernel_sampler: Optional[_KernelSampler] = None,
    label: Optional[str] = None,
    rng: RngLike = None,
) -> AuditResult:
    """Audit end-to-end ``A_all`` network shuffling with binary RR.

    Adjacent worlds: the ``victim`` user holds 0 (``D``) or 1 (``D'``);
    all other users hold i.i.d. fair coins (the adversary knows the
    protocol but not their values — the honest-majority population is
    the noise the victim hides in).  The default attacker statistic
    weighs each delivered payload by the victim's position distribution
    ``P^G(t)`` at its deliverer; pass any :data:`AuditStatistic` to
    model a different adversary (a custom statistic must target the
    same ``victim`` the game flips).

    Each world draws from its own SeedSequence child generator (``D``
    then ``D'``).  :func:`resolve_method` picks the Monte Carlo engine
    (see the module docstring).

    ``kernel_sampler`` injects a pre-built (memoized) ``_KernelSampler``
    for the kernel engine — the scenario layer passes the graph
    bundle's, so audit sweeps stop rebuilding ``M^t`` per grid point.
    It must have been built for this exact ``(graph, rounds, laziness)``
    (the sampler build is deterministic, so a memoized instance is
    bit-identical to a cold one); ignored when :func:`resolve_method`
    picks ``"tiled"``.
    """
    check_positive_int(trials, "trials")
    check_non_negative_int(rounds, "rounds")
    victim = check_node_index(victim, graph.num_nodes, "victim")
    generator = ensure_rng(rng)
    rng_d, rng_d_prime = spawn_rngs(generator, 2)
    randomizer = BinaryRandomizedResponse(epsilon0)
    if statistic is None:
        statistic = weighted_evidence_statistic(
            graph, rounds, laziness=laziness, victim=victim
        )

    if resolve_method(graph, rounds) == "kernel":
        sampler = (
            kernel_sampler if kernel_sampler is not None
            else _KernelSampler(graph, rounds, laziness)
        )

        def world_statistics(victim_bit: int, world_rng: np.random.Generator):
            return _kernel_world_statistics(
                sampler, randomizer, trials, victim, victim_bit, statistic,
                world_rng,
            )
    else:
        def world_statistics(victim_bit: int, world_rng: np.random.Generator):
            return _tiled_world_statistics(
                graph, randomizer, rounds, trials, victim, victim_bit,
                statistic, laziness, world_rng,
            )

    stats_d = world_statistics(0, rng_d)
    stats_d_prime = world_statistics(1, rng_d_prime)
    eps, threshold = epsilon_lower_bound(
        stats_d, stats_d_prime, delta, confidence=confidence
    )
    return AuditResult(
        epsilon_lower_bound=eps,
        delta=delta,
        trials=trials,
        best_threshold=threshold,
        mechanism=label or f"network-shuffle:A_all:t={rounds}",
    )
