"""The sweep engine: shared-cache, fault-tolerant grid execution.

``sweep(base, axis={"rounds": [1, 2, 4], "graph.degree": [4, 8]})``
takes the cartesian product of the axes (dotted paths, see
:meth:`Scenario.updated`), derives one scenario per grid point, and
executes them sequentially or on a ``ProcessPoolExecutor``.

What makes it an *engine* rather than a loop:

* **One graph build per host.**  Grid points share the process-wide
  :data:`~repro.scenario.cache.GRAPH_CACHE`; pooled sweeps
  pre-materialize each distinct graph once in the parent, spill it to
  an on-disk ``.npz`` cache that spawn-started workers load (fork
  workers inherit the warmed cache outright), and return cache-hit
  counters so the contract is assertable (``SweepResult.cache_stats``).
* **Digest returns by default.**  ``mode="run"`` points come back as
  slim :class:`RunDigest` values (summary scalars + meter aggregates) —
  a million-user grid no longer pickles graphs and report lists across
  the pool; ``results="full"`` opts back into whole ``RunResult``s.
* **Runtime registrations replay into workers.**  Custom
  ``GRAPHS``/``MECHANISMS``/... kinds registered after import are
  recorded and re-registered inside each worker, so spawn-started pools
  see them; unpicklable builders fail loudly at submission instead of
  deep inside the pool.
* **Failures are per-point, not per-sweep.**  Under
  ``on_error="collect"`` a failing grid point becomes a
  :class:`SweepPoint` carrying a :class:`PointFailure` (the canonical
  error payload of :mod:`repro.exceptions`) instead of aborting the
  other 999 points.  A crashed worker (``BrokenProcessPool``: OOM
  kill, segfault, ``os._exit``) rebuilds the pool and retries the
  in-flight points with exponential backoff up to ``retries`` times —
  a point that keeps killing the pool is *quarantined* as failed
  rather than retried forever — and ``point_timeout`` reclaims hung
  points by killing the worker pool and retrying on a fresh one.
* **Completed points checkpoint immediately.**  ``sweep(store=...)``
  records each point as it finishes (not in one batch at the end), so
  a crash at point 999/1000 persists 998 results and the re-run
  computes only the missing tail; campaigns carry a lifecycle status
  (``running``/``complete``/``interrupted``) recording how each sweep
  ended.
"""

from __future__ import annotations

import multiprocessing
import pickle
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import itertools

from repro.amplification.network_shuffle import NetworkShuffleBound
from repro.auditing.auditor import AuditResult
from repro.exceptions import (
    ExecutionTimeoutError,
    ValidationError,
    WorkerCrashError,
    error_payload,
)
from repro.scenario.auditing import audit
from repro.scenario.builders import REPLAYABLE_REGISTRIES
from repro.scenario.cache import (
    GRAPH_CACHE,
    CacheCounters,
    graph_cache_key,
    spec_cache_key,
)
from repro.scenario.profile import (
    ProfilePolicy,
    get_profile_policy,
    set_profile_policy,
)
from repro.scenario.registry import Registration
from repro.scenario.runner import (
    RunResult,
    _bundle_for,
    bound,
    run,
    stationary_bound,
)
from repro.scenario.spec import Scenario
from repro.scenario.summary import run_summary_payload
from repro.testing.faults import maybe_fire

#: Execution modes: simulate + account, account on the materialized
#: graph, closed-form accounting at stationarity (no graph), or the
#: empirical distinguishing-game audit.
_MODES = ("run", "bound", "stationary_bound", "audit")

#: Return shapes for ``mode="run"`` points: slim digests (default) or
#: whole ``RunResult``s.
_RESULTS = ("digest", "full")

#: Per-point failure policies: abort the sweep on the first final
#: failure, or collect failures as failed points and keep going.
_ON_ERROR = ("raise", "collect")

#: How often the pooled loop scans in-flight futures for completions
#: and hung points.
_POLL_SECONDS = 0.05

#: Ceiling on the exponential crash/timeout backoff sleep.
_MAX_BACKOFF_SECONDS = 5.0

#: Consecutive pool deaths with no point ever observed starting before
#: the engine gives up (a broken initializer, not a poison point).
_MAX_BARREN_REBUILDS = 3


@dataclass(frozen=True)
class RunDigest:
    """What a ``run`` grid point keeps: summary scalars + meter totals.

    Everything heavy — the graph, the server reports, the values, the
    per-user meter board — stays in the worker; a digest is a few
    hundred bytes regardless of ``n``, which is what lets pooled sweeps
    scale to million-user grids.  The field names mirror
    :meth:`RunResult.summary`.
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
    max_messages_sent: Optional[int] = None
    max_peak_items: Optional[int] = None
    schedule_accounting: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest (one code path with ``RunResult.summary``)."""
        return run_summary_payload(
            protocol=self.protocol,
            engine=self.engine,
            num_users=self.num_users,
            rounds=self.rounds,
            dummy_count=self.dummy_count,
            elapsed_seconds=self.elapsed_seconds,
            central_epsilon=self.central_epsilon,
            central_delta=self.central_delta,
            theorem=self.theorem,
            epsilon0=self.epsilon0,
            empirical_epsilon=self.empirical_epsilon,
            total_messages_sent=self.total_messages_sent,
            max_peak_items=self.max_peak_items,
            schedule_accounting=self.schedule_accounting,
        )


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
        max_messages_sent=(
            None if meters is None else int(meters.max_messages_sent())
        ),
        max_peak_items=(
            None if meters is None else int(meters.max_peak_items())
        ),
        schedule_accounting=(
            None if bound_ is None or bound_.accounting is None
            else dict(bound_.accounting)
        ),
    )


Outcome = Union[RunResult, RunDigest, NetworkShuffleBound, AuditResult]


@dataclass(frozen=True)
class PointFailure:
    """Why one grid point ultimately failed — the canonical payload.

    ``error``/``status``/``message`` are exactly the
    :func:`repro.exceptions.error_payload` rendering of the final
    exception, so a failed sweep point reports the same text the CLI
    prints and the serving tier returns for the same fault.  ``kind``
    classifies the failure mode: ``"exception"`` (the point raised —
    deterministic, never retried), ``"crash"`` (its worker process
    died), or ``"timeout"`` (it exceeded ``point_timeout``).
    ``attempts`` counts executions consumed, and ``quarantined`` marks
    a point that exhausted its crash/timeout retry budget.
    """

    error: str
    status: int
    message: str
    kind: str = "exception"
    attempts: int = 1
    quarantined: bool = False

    @classmethod
    def from_error(
        cls,
        error: BaseException,
        *,
        kind: str = "exception",
        attempts: int = 1,
        quarantined: bool = False,
    ) -> "PointFailure":
        payload = error_payload(error)
        return cls(
            error=payload["error"],
            status=payload["status"],
            message=payload["message"],
            kind=kind,
            attempts=attempts,
            quarantined=quarantined,
        )

    def payload(self) -> Dict[str, Any]:
        """JSON-able rendering (a superset of ``error_payload``)."""
        return asdict(self)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: its coordinates, scenario, and outcome.

    A point either succeeded (``outcome`` set, ``failure`` None) or —
    under ``on_error="collect"`` — failed (``outcome`` None,
    ``failure`` set); sweeps that abort never produce failed points.
    """

    coordinates: Dict[str, Any]
    scenario: Scenario
    outcome: Optional[Outcome]
    failure: Optional[PointFailure] = None

    @property
    def failed(self) -> bool:
        """Whether this point failed (its ``failure`` says why)."""
        return self.failure is not None

    @property
    def epsilon(self) -> Optional[float]:
        """Central epsilon of this point's outcome (None if failed).

        For ``mode="audit"`` points this is the *measured* empirical
        lower bound, the curve an audit sweep is after.
        """
        if self.outcome is None:
            return None
        if isinstance(self.outcome, NetworkShuffleBound):
            return self.outcome.epsilon
        if isinstance(self.outcome, AuditResult):
            return self.outcome.epsilon_lower_bound
        return self.outcome.central_epsilon


@dataclass(frozen=True)
class SweepResult:
    """All grid points of one sweep, in grid order."""

    axis: Dict[str, List[Any]]
    points: List[SweepPoint]
    #: How the graph cache served the sweep, summed over the parent and
    #: every worker: ``builds`` counts generator runs, so a pooled sweep
    #: over G distinct graphs should report ``builds == G`` per host.
    cache_stats: CacheCounters = field(default_factory=CacheCounters)
    #: How the campaign store served the sweep: ``computed`` points were
    #: executed (successfully) this call, ``reused`` were answered from
    #: the store's (scenario-hash, mode, code-version) key.  Without a
    #: store every point is computed.
    computed: int = 0
    reused: int = 0
    #: Points that ultimately failed under ``on_error="collect"`` —
    #: their :class:`SweepPoint` entries carry the :class:`PointFailure`
    #: (and are listed by :attr:`failures`).  Failed points are never
    #: checkpointed, so a store-backed re-run computes them again.
    failed: int = 0
    #: The campaign row recorded for this sweep (store-backed only).
    campaign_id: Optional[int] = None

    @property
    def failures(self) -> List[SweepPoint]:
        """The failed points, in grid order."""
        return [point for point in self.points if point.failure is not None]

    def epsilons(self) -> List[Optional[float]]:
        """Central epsilon per point, in grid order."""
        return [point.epsilon for point in self.points]

    def column(self, name: str) -> List[Any]:
        """One coordinate column, in grid order."""
        return [point.coordinates[name] for point in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def sweep_scenarios(
    base: Scenario, axis: Mapping[str, Sequence[Any]]
) -> List[Tuple[Dict[str, Any], Scenario]]:
    """Expand ``axis`` into (coordinates, scenario) pairs, grid order.

    Axis keys are dotted paths (``"rounds"``, ``"graph.degree"``,
    ``"mechanism.epsilon"``); the product iterates the *last* axis
    fastest, like nested loops in declaration order.
    """
    if not axis:
        raise ValidationError("sweep needs at least one axis")
    names = list(axis)
    value_lists = []
    for name in names:
        values = list(axis[name])
        if not values:
            raise ValidationError(f"axis {name!r} has no values")
        value_lists.append(values)
    grid: List[Tuple[Dict[str, Any], Scenario]] = []
    for combo in itertools.product(*value_lists):
        coordinates = dict(zip(names, combo))
        grid.append((coordinates, base.updated(**coordinates)))
    return grid


# ----------------------------------------------------------------------
# Registration replay (runtime registry entries -> pool workers)
# ----------------------------------------------------------------------
#: A recorded runtime registration: (registry label, kind, builder,
#: example, doc).  Builders travel by pickle reference; signatures are
#: recomputed on the far side.
_RecordedRegistration = Tuple[str, str, Any, Dict[str, Any], str]


def _used_kinds(
    grid: Sequence[Tuple[Dict[str, Any], Scenario]],
    mode: str,
) -> Dict[str, set]:
    """Which registry kinds the grid's scenarios actually reference."""
    used: Dict[str, set] = {label: set() for label in REPLAYABLE_REGISTRIES}
    for _, scenario in grid:
        for field_name in (
            "graph", "mechanism", "faults", "values", "dummies", "audit"
        ):
            spec = getattr(scenario, field_name)
            if spec is None:
                continue
            used[field_name].add(spec.kind)
            if field_name == "graph" and spec.kind == "schedule":
                # Schedule params nest further graph sub-specs.
                sub_specs = list(spec.params.get("graphs") or [])
                if spec.params.get("base") is not None:
                    sub_specs.append(spec.params["base"])
                for sub in sub_specs:
                    if isinstance(sub, str):
                        used["graph"].add(sub)
                    elif isinstance(sub, Mapping) and "kind" in sub:
                        used["graph"].add(sub["kind"])
    # Only stationary_bound consults GRAPH_STATS (same kind keys); a
    # broken runtime stats builder must not abort modes that never
    # touch it.
    if mode == "stationary_bound":
        used["graph_stats"] = set(used["graph"])
    return used


def _runtime_registrations(
    used: Dict[str, set],
) -> List[_RecordedRegistration]:
    """Record post-import registrations the grid needs, for replay.

    Only consulted for non-fork pools (fork workers inherit the live
    registries, so nothing needs to travel).  Every runtime
    registration that pickles travels to the workers; an unpicklable
    one is fatal only when the grid actually references its kind — a
    stray local-function registration elsewhere in the process must
    not poison unrelated sweeps.
    """
    recorded: List[_RecordedRegistration] = []
    for label, registry in REPLAYABLE_REGISTRIES.items():
        for entry in registry.runtime_entries():
            try:
                pickle.dumps(entry.builder)
            except Exception as error:
                if entry.kind in used.get(label, ()):
                    raise ValidationError(
                        f"the {registry.label} builder for kind "
                        f"{entry.kind!r} is not picklable ({error}); "
                        "pooled sweeps replay runtime registrations into "
                        "worker processes, so the builder must be a "
                        "module-level function (not a lambda or closure). "
                        "Define it at module scope, or run the sweep "
                        "with workers=0."
                    ) from error
                continue
            recorded.append(
                (label, entry.kind, entry.builder, dict(entry.example), entry.doc)
            )
    return recorded


def _replay_registrations(recorded: Sequence[_RecordedRegistration]) -> None:
    """Re-register recorded entries in this process (idempotent)."""
    for label, kind, builder, example, doc in recorded:
        REPLAYABLE_REGISTRIES[label].adopt(
            Registration(kind=kind, builder=builder, example=example, doc=doc)
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute(scenario: Scenario, mode: str, results: str) -> Outcome:
    if mode == "run":
        outcome = run(scenario)
        return digest_run(outcome) if results == "digest" else outcome
    if mode == "bound":
        return bound(scenario)
    if mode == "audit":
        return audit(scenario)
    return stationary_bound(scenario)


def _initialize_worker(
    registrations: List[_RecordedRegistration],
    spill_dir: Optional[str],
    profile_policy: Optional[Dict[str, Any]] = None,
) -> None:
    """Pool-worker initializer: replay registrations, attach the spill.

    Runs once per worker process (not per grid point), so the recorded
    registrations and cache configuration cross the pool exactly once.
    ``profile_policy`` carries the parent's schedule-accounting policy
    with the memory budget divided by the worker count, so ``workers``
    concurrent profile evolutions respect the *host's* budget (the
    panel width changes, the resulting bits never do).
    """
    _replay_registrations(registrations)
    if spill_dir is not None:
        GRAPH_CACHE.spill_dir = Path(spill_dir)
    if profile_policy is not None:
        set_profile_policy(ProfilePolicy(**profile_policy))


def _execute_serialized(
    payload: Tuple[int, str, str, str, Optional[str]],
) -> Tuple[Outcome, CacheCounters]:
    """Process-pool entry point (module-level for pickling).

    Executes one grid point and returns the outcome together with the
    cache-counter delta this call produced — the parent sums the
    deltas into ``SweepResult.cache_stats``.  Before executing, the
    worker drops a start marker into ``marker_dir``: if the pool dies,
    the parent reads the markers to attribute the crash to the points
    that were actually in flight (queued bystanders retry for free).
    """
    index, scenario_json, mode, results, marker_dir = payload
    if marker_dir is not None:
        try:
            Path(marker_dir, f"started-{index}").touch()
        except OSError:
            pass  # marker loss degrades crash attribution, not results
    maybe_fire(index)
    before = GRAPH_CACHE.stats()
    outcome = _execute(Scenario.from_json(scenario_json), mode, results)
    return outcome, GRAPH_CACHE.stats().delta(before)


def _shutdown_pool(pool: ProcessPoolExecutor, *, kill: bool) -> None:
    """Shut a pool down; ``kill=True`` terminates the workers.

    Killing is the only way to reclaim a hung point — cancelling a
    running future is a no-op — and the safe way to dismantle a pool
    that is already broken.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=not kill, cancel_futures=True)
    if kill:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)


def _run_pooled(
    todo: List[int],
    scenario_json: Dict[int, str],
    *,
    mode: str,
    results: str,
    workers: int,
    context,
    registrations: List[_RecordedRegistration],
    spill_path: Optional[str],
    worker_policy: Optional[Dict[str, Any]],
    on_error: str,
    retries: int,
    point_timeout: Optional[float],
    backoff: float,
    checkpoint: Callable[[int, Outcome], None],
) -> Tuple[Dict[int, Outcome], Dict[int, PointFailure], CacheCounters]:
    """Execute grid points on a pool that survives its workers' deaths.

    The loop owns a *generation* of the pool at a time: submit the
    outstanding points, harvest completions (checkpointing each as it
    lands), and watch for the two failure modes no future can report
    politely — a broken pool (worker death) and a hung point.  Either
    one ends the generation: the pool is rebuilt, the affected points'
    attempt budgets are charged (crashes are attributed via the start
    markers, so queued bystanders retry for free), points past
    ``retries`` are quarantined, and the survivors go around again
    after an exponential backoff.
    """
    outcomes: Dict[int, Outcome] = {}
    failures: Dict[int, PointFailure] = {}
    attempts: Dict[int, int] = {index: 0 for index in todo}
    stats = CacheCounters()
    rebuilds = 0
    barren_rebuilds = 0

    def _final(index: int, error: BaseException, kind: str) -> None:
        """Record (or raise) one point's final failure."""
        if on_error == "raise":
            raise error
        failures[index] = PointFailure.from_error(
            error,
            kind=kind,
            attempts=attempts[index],
            quarantined=kind in ("crash", "timeout"),
        )

    while todo:
        marker_dir = tempfile.mkdtemp(prefix="repro-sweep-markers-")
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_initialize_worker,
            initargs=(registrations, spill_path, worker_policy),
        )
        futures = {
            pool.submit(
                _execute_serialized,
                (index, scenario_json[index], mode, results, marker_dir),
            ): index
            for index in todo
        }
        todo = []
        pending: Set[Any] = set(futures)
        crashed: List[int] = []
        hung_indices: Set[int] = set()
        first_running: Dict[Any, float] = {}
        broke = False
        try:
            while pending:
                done, pending = wait(
                    pending, timeout=_POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = futures[future]
                    try:
                        outcome, delta = future.result()
                    except BrokenProcessPool:
                        broke = True
                        crashed.append(index)
                    except Exception as error:
                        # The point itself raised: deterministic, so
                        # retrying would fail identically — final now.
                        attempts[index] += 1
                        _final(index, error, "exception")
                    else:
                        attempts[index] += 1
                        outcomes[index] = outcome
                        stats.merge(delta)
                        checkpoint(index, outcome)
                if broke:
                    break
                if point_timeout is not None and pending:
                    now = time.monotonic()
                    for future in pending:
                        marker = Path(
                            marker_dir, f"started-{futures[future]}"
                        )
                        if future not in first_running and marker.exists():
                            first_running[future] = now
                    hung_indices = {
                        futures[future]
                        for future in pending
                        if future in first_running
                        and now - first_running[future] > point_timeout
                    }
                    if hung_indices:
                        break

            if broke:
                # A broken pool fails every in-flight future, but some
                # pending futures may have *finished* (successfully or
                # not) just before the break — drain their real state
                # so a completed point is never charged as a crash.
                unfinished = list(crashed)
                for future in pending:
                    index = futures[future]
                    try:
                        outcome, delta = future.result(timeout=5)
                    except (BrokenProcessPool, _FuturesTimeout):
                        unfinished.append(index)
                    except Exception as error:
                        attempts[index] += 1
                        _final(index, error, "exception")
                    else:
                        attempts[index] += 1
                        outcomes[index] = outcome
                        stats.merge(delta)
                        checkpoint(index, outcome)
                _shutdown_pool(pool, kill=True)
                charged = False
                for index in unfinished:
                    if Path(marker_dir, f"started-{index}").exists():
                        # This point was executing when the pool died.
                        charged = True
                        attempts[index] += 1
                        if attempts[index] > retries:
                            _final(
                                index,
                                WorkerCrashError(
                                    f"grid point {index} killed its worker "
                                    f"process {attempts[index]} time(s); "
                                    "quarantined as a poison point "
                                    f"(retries={retries})"
                                ),
                                "crash",
                            )
                        else:
                            todo.append(index)
                    else:
                        # Queued bystander: retries for free.
                        todo.append(index)
                barren_rebuilds = 0 if (charged or outcomes) else (
                    barren_rebuilds + 1
                )
                if barren_rebuilds >= _MAX_BARREN_REBUILDS:
                    raise WorkerCrashError(
                        f"worker pool died {barren_rebuilds} times in a row "
                        "before any grid point started executing — the pool "
                        "itself (not a poison point) is broken; check the "
                        "worker initializer and available memory"
                    )
            elif hung_indices:
                survivors = [
                    futures[future]
                    for future in pending
                    if futures[future] not in hung_indices
                ]
                _shutdown_pool(pool, kill=True)
                for index in sorted(hung_indices):
                    attempts[index] += 1
                    if attempts[index] > retries:
                        _final(
                            index,
                            ExecutionTimeoutError(
                                f"grid point {index} exceeded "
                                f"point_timeout={point_timeout}s "
                                f"{attempts[index]} time(s); its worker was "
                                f"killed (retries={retries})"
                            ),
                            "timeout",
                        )
                    else:
                        todo.append(index)
                todo.extend(survivors)
                barren_rebuilds = 0
            else:
                _shutdown_pool(pool, kill=False)
        except BaseException:
            _shutdown_pool(pool, kill=True)
            raise
        finally:
            shutil.rmtree(marker_dir, ignore_errors=True)

        if todo:
            rebuilds += 1
            if backoff > 0:
                time.sleep(
                    min(backoff * (2 ** (rebuilds - 1)), _MAX_BACKOFF_SECONDS)
                )
    return outcomes, failures, stats


def _materializing_grid(
    grid: Sequence[Tuple[Dict[str, Any], Scenario]],
    mode: str,
) -> List[Tuple[Dict[str, Any], Scenario]]:
    """The grid entries whose graphs this ``mode`` will materialize.

    ``stationary_bound`` prices closed-form kinds (including stats-only
    kinds like ``gamma``, which have no builder at all) without a
    graph; only its fallback kinds — those missing a ``GRAPH_STATS``
    entry — need the warmup.  Every other mode materializes everything.
    """
    if mode != "stationary_bound":
        return list(grid)
    from repro.scenario.builders import GRAPH_STATS

    return [
        entry for entry in grid if entry[1].graph.kind not in GRAPH_STATS
    ]


#: Floor on a pool worker's profile memory budget: below this the
#: panels degenerate to a handful of columns and the spill churn
#: dominates — a worker always gets at least 8 MiB to plan with.
_MIN_WORKER_PROFILE_BUDGET = 8 * 1024 * 1024


def _worker_profile_policy(workers: int) -> Dict[str, Any]:
    """The parent's profile policy with a per-worker budget share.

    ``workers`` profile evolutions can run concurrently, so each worker
    plans against ``budget // workers`` (floored) — the host's memory
    high-water stays within the configured budget.  Returned as a dict
    so it pickles under every start method.
    """
    policy = get_profile_policy()
    share = max(
        _MIN_WORKER_PROFILE_BUDGET,
        int(policy.memory_budget) // max(1, int(workers)),
    )
    return {"memory_budget": share}


def _prepare_pool_graphs(
    grid: Sequence[Tuple[Dict[str, Any], Scenario]],
    spill_dir: Path,
) -> None:
    """Materialize each distinct grid graph once and spill it to disk.

    Fork-started workers inherit the warmed in-memory cache; spawn-
    started workers load the ``.npz`` CSR files.  Either way the
    generator runs exactly once per distinct (graph spec, seed) on this
    host — and seed-independent graphs (shared across a seed axis)
    spill exactly one spec-keyed copy.  Dynamic schedules spill too
    (phase CSRs + selector spec), so spawn workers stop rebuilding
    them; only a schedule with a custom selector callable is rebuilt
    per spawn worker (fork workers always inherit the bundle).  The
    spill directory doubles as the profile-block root: any schedule
    accounting blocks the parent (or one worker) evolves under
    ``<spill_dir>/profiles/`` are resumed by the others.
    """
    seen = set()
    for _, scenario in grid:
        payload = scenario.graph.to_dict()
        key = graph_cache_key(payload, scenario.seed)
        if key in seen:
            continue
        seen.add(key)
        GRAPH_CACHE.spill(
            key,
            _bundle_for(scenario),
            spill_dir,
            spec_key=spec_cache_key(payload),
        )


def sweep(
    base: Scenario,
    *,
    axis: Mapping[str, Sequence[Any]],
    mode: str = "run",
    workers: int = 0,
    results: str = "digest",
    mp_context: Optional[str] = None,
    spill_dir: Optional[str] = None,
    store: Optional[Any] = None,
    campaign: Optional[str] = None,
    on_error: str = "raise",
    retries: int = 0,
    point_timeout: Optional[float] = None,
    backoff: float = 0.1,
) -> SweepResult:
    """Execute the grid ``base x axis``.

    Parameters
    ----------
    base:
        Scenario every grid point derives from.
    axis:
        Mapping of dotted parameter path -> values to sweep.
    mode:
        ``"run"`` (simulate + account), ``"bound"`` (theorem on the
        materialized graph, no simulation), ``"stationary_bound"``
        (closed form, no graph), or ``"audit"`` (empirical
        distinguishing game).  Schedule scenarios sweep through
        ``"run"``/``"bound"``/``"audit"`` (exact scheduled accounting);
        ``"stationary_bound"`` refuses them — a time-varying walk has
        no stationary distribution.
    workers:
        0/1 executes sequentially in-process; >= 2 fans out to a
        ``ProcessPoolExecutor``.  The graph cache is shared either way:
        sequential points reuse the in-process bundle, and pooled
        sweeps pre-materialize each distinct graph once in the parent
        (fork workers inherit it, spawn workers load the on-disk spill)
        — ``SweepResult.cache_stats`` reports exactly how.  Runtime
        registry registrations travel too: fork workers inherit them
        outright; under spawn/forkserver they are recorded and replayed
        inside every worker, and an unpicklable builder the grid uses
        is rejected loudly up front.
    results:
        ``"digest"`` (default) returns each ``mode="run"`` point as a
        slim :class:`RunDigest` — summary scalars plus meter aggregates,
        nothing proportional to ``n`` — which keeps pooled large-``n``
        sweeps from pickling graphs and report lists back to the
        parent.  ``"full"`` opts back into whole :class:`RunResult`
        objects (payloads, allocation, per-user meters).  Other modes
        already return slim outcomes and ignore this.
    mp_context:
        Multiprocessing start method for the pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` uses the platform
        default.  Mostly for tests and spawn-only platforms.
    spill_dir:
        Directory for the on-disk graph cache shared with workers;
        ``None`` uses a sweep-lifetime temporary directory (pooled
        sweeps only).  Passing a persistent path points this process's
        graph cache at it as a standing disk tier — the sweep loads
        whatever is already spilled there (instead of re-running
        generators) and spills what is not, so materializations are
        reused across sweeps *and across processes*.
    store:
        A :class:`~repro.store.ResultsStore` (or a path to one) the
        sweep consults before executing: a grid point whose
        ``(scenario hash, mode, code-version fingerprint)`` key is
        already stored is *reused* — its outcome is rebuilt from the
        stored payload and the point never executes — and every
        computed point is recorded **as it finishes**, so an
        interrupted sweep (crash, SIGKILL, power loss) persists every
        point that completed and the re-run computes only the missing
        tail.  The sweep is recorded as a campaign with a lifecycle
        status: ``running`` while executing (and forever, if the
        process dies hard), ``complete`` on return, ``interrupted``
        when the sweep aborted with an error.  Failed points are never
        recorded — a re-run computes them again.  Requires
        ``results="digest"`` — full ``RunResult`` objects do not
        round-trip through the store.
    campaign:
        Campaign name recorded in the store (default ``"sweep"``);
        purely a label — pass distinct names to make ``results diff``
        targets addressable.
    on_error:
        ``"raise"`` (default) aborts the sweep on the first point whose
        failure is final; ``"collect"`` turns it into a failed
        :class:`SweepPoint` carrying a :class:`PointFailure` and keeps
        executing the rest of the grid
        (``SweepResult.failed``/``failures`` report them).
    retries:
        How many times a point whose *worker* failed — the pool broke
        (OOM kill, segfault, ``os._exit``) or ``point_timeout``
        elapsed — is retried on a rebuilt pool before being
        quarantined.  Deterministic point exceptions are never
        retried.  Only meaningful with ``workers >= 2`` (sequential
        sweeps have no worker to lose).
    point_timeout:
        Wall-clock seconds a single point may execute before its
        worker pool is killed and the point treated like a crash
        (retried up to ``retries``, then quarantined).  ``None``
        disables the watchdog.  Pooled sweeps only.
    backoff:
        Base of the exponential sleep between pool rebuilds
        (``backoff * 2**k`` seconds after the ``k``-th rebuild, capped
        at {max_backoff}s).  Lower it in tests; raise it when crashes
        come from resource exhaustion that needs time to clear.
    """
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    if results not in _RESULTS:
        raise ValidationError(
            f"results must be one of {_RESULTS}, got {results!r}"
        )
    if on_error not in _ON_ERROR:
        raise ValidationError(
            f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
        )
    retries = int(retries)
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")
    if point_timeout is not None and not point_timeout > 0:
        raise ValidationError(
            f"point_timeout must be positive seconds, got {point_timeout!r}"
        )
    if backoff < 0:
        raise ValidationError(f"backoff must be >= 0, got {backoff!r}")
    grid = sweep_scenarios(base, axis)

    store_obj = None
    owns_store = False
    campaign_id: Optional[int] = None
    fingerprint: Optional[str] = None
    reused_outcomes: Dict[int, Any] = {}
    outcome_payload = None
    if store is not None:
        if results != "digest":
            raise ValidationError(
                'store-backed sweeps require results="digest" — full '
                "RunResult objects do not round-trip through the store"
            )
        # Imported lazily: repro.store's outcome codec imports RunDigest
        # from this module.
        from repro.store import (
            code_version,
            open_store,
            outcome_from_payload,
            outcome_payload,
        )

        store_obj = open_store(store)
        owns_store = store_obj is not store
        fingerprint = code_version()

    def _checkpoint(index: int, outcome: Outcome) -> None:
        """Record one completed point immediately (durable progress)."""
        if store_obj is None:
            return
        coordinates, scenario = grid[index]
        store_obj.record_point(
            scenario,
            mode,
            outcome_payload(outcome),
            coordinates=coordinates,
            campaign_id=campaign_id,
            elapsed_seconds=getattr(outcome, "elapsed_seconds", None),
            fingerprint=fingerprint,
            reused=False,
        )

    completed = False
    try:
        if store_obj is not None:
            campaign_id = store_obj.begin_campaign(
                campaign or "sweep",
                meta={
                    "mode": mode,
                    "axis": {
                        name: list(values) for name, values in axis.items()
                    },
                    "points": len(grid),
                },
                fingerprint=fingerprint,
            )
            # Probe before executing: a point already stored under this
            # (scenario hash, mode, code version) never runs again.  The
            # campaign link is recorded right away, so even an
            # interrupted sweep's campaign shows what it observed.
            for index, (coordinates, scenario) in enumerate(grid):
                payload = store_obj.point_payload(
                    scenario, mode, fingerprint=fingerprint
                )
                if payload is not None:
                    reused_outcomes[index] = outcome_from_payload(
                        mode, payload
                    )
                    store_obj.record_point(
                        scenario,
                        mode,
                        payload,
                        coordinates=coordinates,
                        campaign_id=campaign_id,
                        fingerprint=fingerprint,
                        reused=True,
                    )
        pending = [
            index for index in range(len(grid))
            if index not in reused_outcomes
        ]
        pending_grid = [grid[index] for index in pending]

        parent_before = GRAPH_CACHE.stats()
        persistent_spill: Optional[Path] = None
        if spill_dir is not None:
            # A persistent spill directory is a cache tier for THIS
            # process too: point the parent cache at it before any
            # materialization, so a fresh process re-running the sweep
            # loads yesterday's .npz instead of re-running the generator.
            persistent_spill = Path(spill_dir)
            persistent_spill.mkdir(parents=True, exist_ok=True)
            GRAPH_CACHE.spill_dir = persistent_spill
        failures: Dict[int, PointFailure] = {}
        pending_outcomes: Dict[int, Outcome] = {}
        if pending_grid and workers and workers > 1:
            context = multiprocessing.get_context(mp_context)
            # Fork workers inherit the live registries (and any closure
            # builders) outright — recording/pickling registrations is
            # both unnecessary and stricter than pre-engine behavior
            # there.  Spawn/forkserver workers import fresh registries,
            # so the grid's runtime registrations must travel by pickle.
            if context.get_start_method() == "fork":
                registrations: List[_RecordedRegistration] = []
            else:
                registrations = _runtime_registrations(
                    _used_kinds(pending_grid, mode)
                )
            temp: Optional[tempfile.TemporaryDirectory] = None
            spill_path: Optional[Path] = None
            # Warm exactly what this mode will materialize: closed-form
            # stationary points need no graph (and stats-only kinds have
            # none to build); fallback kinds get the one-build-per-host
            # treatment as usual.
            warm_grid = _materializing_grid(pending_grid, mode)
            if warm_grid:
                if persistent_spill is None:
                    temp = tempfile.TemporaryDirectory(
                        prefix="repro-graphs-"
                    )
                    spill_path = Path(temp.name)
                else:
                    spill_path = persistent_spill
            scenario_json = {
                index: grid[index][1].to_json() for index in pending
            }
            try:
                if warm_grid:
                    _prepare_pool_graphs(warm_grid, spill_path)
                pending_outcomes, failures, worker_stats = _run_pooled(
                    list(pending),
                    scenario_json,
                    mode=mode,
                    results=results,
                    workers=workers,
                    context=context,
                    registrations=registrations,
                    spill_path=(
                        None if spill_path is None else str(spill_path)
                    ),
                    worker_policy=_worker_profile_policy(workers),
                    on_error=on_error,
                    retries=retries,
                    point_timeout=point_timeout,
                    backoff=backoff,
                    checkpoint=_checkpoint,
                )
            finally:
                if temp is not None:
                    temp.cleanup()
            cache_stats = GRAPH_CACHE.stats().delta(parent_before)
            cache_stats.merge(worker_stats)
        else:
            if persistent_spill is not None:
                warm_grid = _materializing_grid(pending_grid, mode)
                if warm_grid:
                    # Sequential sweeps honor the persistent tier too:
                    # load what exists, spill what doesn't, so the next
                    # process reuses it.
                    _prepare_pool_graphs(warm_grid, persistent_spill)
            for index in pending:
                _, scenario = grid[index]
                try:
                    maybe_fire(index)
                    outcome = _execute(scenario, mode, results)
                except Exception as error:
                    if on_error == "raise":
                        raise
                    failures[index] = PointFailure.from_error(error)
                else:
                    pending_outcomes[index] = outcome
                    _checkpoint(index, outcome)
            cache_stats = GRAPH_CACHE.stats().delta(parent_before)

        merged: List[Any] = [None] * len(grid)
        for index, outcome in pending_outcomes.items():
            merged[index] = outcome
        for index, outcome in reused_outcomes.items():
            merged[index] = outcome
        completed = True
    finally:
        if store_obj is not None and campaign_id is not None:
            # ``complete`` means the sweep ran to the end (collected
            # failures included); anything that aborted it — a raised
            # point, Ctrl-C, a store error — leaves ``interrupted``.
            # A hard process death skips this entirely and the campaign
            # stays ``running``, which is itself informative.
            try:
                store_obj.finish_campaign(
                    campaign_id,
                    status="complete" if completed else "interrupted",
                )
            except Exception:
                if completed:
                    raise
                # Already unwinding with the real error; a finalize
                # failure must not mask it.
        if owns_store and store_obj is not None:
            store_obj.close()

    points = [
        SweepPoint(
            coordinates=coordinates,
            scenario=scenario,
            outcome=merged[index],
            failure=failures.get(index),
        )
        for index, (coordinates, scenario) in enumerate(grid)
    ]
    return SweepResult(
        axis={name: list(values) for name, values in axis.items()},
        points=points,
        cache_stats=cache_stats,
        computed=len(pending) - len(failures),
        reused=len(reused_outcomes),
        failed=len(failures),
        campaign_id=campaign_id,
    )


sweep.__doc__ = sweep.__doc__.format(max_backoff=_MAX_BACKOFF_SECONDS)
