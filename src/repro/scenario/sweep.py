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
  workers inherit the warmed cache outright), and bring their
  :mod:`repro.obs` counts back so the contract is assertable
  (``SweepResult.cache_stats``).
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
  points by killing the worker pool and retrying on a fresh one — all
  in :class:`PointPool`, which also runs the serving tier's jobs.
* **Completed points checkpoint immediately.**  ``sweep(store=...)``
  records each point as it finishes (not in one batch at the end), so
  a crash at point 999/1000 persists 998 results and the re-run
  computes only the missing tail; campaigns carry a lifecycle status
  (``running``/``complete``/``interrupted``) recording how each sweep
  ended.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import itertools

from repro import obs
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
    RunDigest,
    RunResult,
    _bundle_for,
    bound,
    digest_run,
    run,
    sharing_walks,
    spill_graph,
    stationary_bound,
)
from repro.scenario.spec import Scenario
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

#: How often a pool worker checks that the process owning it still lives.
_ORPHAN_POLL_SECONDS = 1.0

#: Consecutive pool deaths with no point ever observed starting before
#: the engine gives up (a broken initializer, not a poison point).
_MAX_BARREN_REBUILDS = 3


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
    #: How the graph cache served the sweep: the ``graph_cache.*``
    #: counts :mod:`repro.obs` gained while it ran, which include every
    #: worker's.  ``builds`` counts generator runs, so a pooled sweep
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
    spill_dir: Union[str, Path, None],
    profile_policy: Optional[Dict[str, Any]],
) -> None:
    """Pool-worker initializer: replay the parent's process-wide setup.

    Runs once per worker process: runtime registrations, the graph disk
    tier, the schedule-accounting policy (its memory budget already
    divided by the worker count, so concurrent profile evolutions
    respect the *host's* budget), which spawn and forkserver workers
    would otherwise start without.  Workers ignore SIGINT: a terminal's
    Ctrl-C reaches the whole process group, and the parent, which owns
    their lifetime, shuts them down; a parent killed outright cannot,
    so a watchdog thread exits the worker once its parent is gone.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()
    _replay_registrations(registrations)
    if spill_dir is not None:
        GRAPH_CACHE.spill_dir = Path(spill_dir)
    if profile_policy is not None:
        set_profile_policy(ProfilePolicy(**profile_policy))


def _exit_when_orphaned(parent: int) -> None:
    """Exit this worker once ``parent`` is no longer its parent.

    An idle worker blocks on a call queue whose write end it holds
    too, so a hard-killed parent (SIGKILL, OOM) leaves it no EOF to
    notice; the reparenting is the one sign it gets.
    """
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_SECONDS)
    os._exit(1)


def _execute_serialized(
    payload: Tuple[int, str, str, str, str],
) -> Tuple[Outcome, Dict[str, int]]:
    """Process-pool entry point: one point, with the :mod:`repro.obs`
    counts it added.  Its start marker in ``marker_dir``, which names
    this worker's pid, lets the parent attribute a pool death to the
    point whose worker died; with a disk tier attached, the point's
    graph is left there."""
    index, scenario_json, mode, results, marker_dir = payload
    try:
        Path(marker_dir, f"started-{index}").write_text(str(os.getpid()))
    except OSError:
        pass  # marker loss degrades crash attribution, not results
    maybe_fire(index)
    before = obs.snapshot()
    scenario = Scenario.from_json(scenario_json)
    outcome = _execute(scenario, mode, results)
    if GRAPH_CACHE.spill_dir is not None and mode != "stationary_bound":
        spill_graph(scenario)
    return outcome, obs.since(before)


@dataclass(frozen=True)
class PointResult:
    """A finished point: ``outcome``, or the final ``error`` with its
    :class:`PointFailure` kind/attempts."""

    index: int
    outcome: Optional[Outcome] = None
    error: Optional[BaseException] = None
    kind: str = "exception"
    attempts: int = 1


class PointPool:
    """One long-lived process pool that survives its workers' deaths.

    :meth:`submit` queues a point and :meth:`poll` is one supervision
    step, returning the points finished since the last one.  The pool
    runs in *generations* of workers and watches for the two failures
    no future reports politely — a broken pool (worker death) and a
    hung point (``point_timeout``).  Either one kills the generation:
    the point at fault — the one whose worker died, or the hung one —
    is charged an attempt (start markers name each started point's
    worker; the other points retry for free), one past ``retries``
    comes back quarantined (``crash``/``timeout``), and the rest go to a
    fresh generation after an exponential backoff.
    :func:`sweep` drains one pool per call; the serving tier keeps one
    for its lifetime and polls it from its event loop (``poll()`` does
    not block at the default ``timeout=0``).
    """

    def __init__(
        self,
        workers: int,
        *,
        context,
        registrations: Optional[Sequence[_RecordedRegistration]] = None,
        spill_path: Union[str, Path, None] = None,
        retries: int = 0,
        point_timeout: Optional[float] = None,
        backoff: float = 0.1,
    ):
        # Workers replay this process's setup as it stands now (by
        # default with every picklable runtime registration).
        if registrations is None:
            registrations = _runtime_registrations({})
        self._options = dict(
            max_workers=int(workers),
            mp_context=context,
            initializer=_initialize_worker,
            initargs=(
                list(registrations), spill_path,
                _worker_profile_policy(workers),
            ),
        )
        self._retries = int(retries)
        self._point_timeout = point_timeout
        self._backoff = backoff
        self._pool: Optional[ProcessPoolExecutor] = None
        self._marker_dir: Optional[str] = None
        self._futures: Dict[Any, int] = {}  # this generation's points
        self._waiting: List[int] = []  # points not on a generation yet
        self._payloads: Dict[int, Tuple[str, str, str]] = {}
        self._attempts: Dict[int, int] = {}
        self._rebuilds = 0  # in a row; a completed point resets it
        self._barren_rebuilds = 0
        self._completed_any = False
        self._resume_at = 0.0

    def __len__(self) -> int:
        """Points submitted and not yet returned by :meth:`poll`."""
        return len(self._payloads)

    def submit(
        self, index: int, scenario_json: str, mode: str,
        results: str = "digest",
    ) -> None:
        """Queue point ``index`` (also its fault-injection index)."""
        self._payloads[index] = (scenario_json, mode, results)
        self._attempts[index] = 0
        self._waiting.append(index)
        self._dispatch()

    def started_at(self, index: int) -> Optional[float]:
        """When point ``index`` started on the current generation
        (epoch seconds, its start marker's mtime), else ``None``."""
        if self._marker_dir is None:
            return None
        try:
            return Path(self._marker_dir, f"started-{index}").stat().st_mtime
        except OSError:
            return None

    def drain(self) -> Iterator[PointResult]:
        """Poll until every submitted point has finished."""
        while self:
            yield from self.poll(_POLL_SECONDS)

    def close(self) -> None:
        """Release the workers, killing any point still executing."""
        self._waiting.clear()
        self._payloads.clear()
        self._attempts.clear()
        self._end_generation(kill=bool(self._futures))
        self._futures.clear()

    def poll(self, timeout: float = 0.0) -> List[PointResult]:
        """Wait up to ``timeout`` seconds; return the finished points.

        Finished means completed, failed with an exception (final: a
        deterministic failure is never retried), or quarantined after a
        crash or timeout.  Raises :class:`WorkerCrashError`, dropping
        every point, when the pool keeps dying before any point starts:
        then the pool itself, not a poison point, is broken.
        """
        self._dispatch()
        if not self._futures:
            if self._waiting and timeout > 0:  # backing off
                time.sleep(
                    min(timeout, max(0.0, self._resume_at - time.monotonic()))
                )
            return []
        done, _ = wait(
            list(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        finished: List[PointResult] = []
        crashed = self._harvest(done, finished)
        if crashed:
            # A broken pool fails every in-flight future, but some may
            # have finished just before the break: drain their real
            # state so a completed point is never charged as a crash.
            crashed += self._harvest(list(self._futures), finished, 5)
            charged = self._culprits(crashed)
            self._barren_rebuilds = (
                0 if charged or self._completed_any
                else self._barren_rebuilds + 1
            )
            self._requeue(
                crashed, charged, finished, WorkerCrashError, "crash",
                "grid point {index} killed its worker process {attempts} "
                "time(s); quarantined as a poison point (retries={retries})",
            )
            if self._barren_rebuilds >= _MAX_BARREN_REBUILDS:
                self.close()
                raise WorkerCrashError(
                    f"worker pool died {_MAX_BARREN_REBUILDS} times in a "
                    "row before any grid point started executing — the "
                    "pool itself (not a poison point) is broken; check the "
                    "worker initializer and available memory"
                )
        elif self._point_timeout is not None:
            now = time.time()
            hung = {
                index for index in self._futures.values()
                if now - (self.started_at(index) or now) > self._point_timeout
            }
            if hung:
                self._barren_rebuilds = 0
                self._requeue(
                    sorted(hung) + [
                        index for index in self._futures.values()
                        if index not in hung
                    ],
                    hung, finished, ExecutionTimeoutError, "timeout",
                    "grid point {index} exceeded point_timeout={timeout}s "
                    "{attempts} time(s); its worker was killed "
                    "(retries={retries})",
                )
        return finished

    # -- internals -----------------------------------------------------
    def _culprits(self, crashed: Sequence[int]) -> set:
        """The ``crashed`` points to charge for a pool death: those whose
        own worker died.  A broken pool's survivors end by SIGTERM (the
        executor's teardown, then this pool's), so any other exit marks
        a culprit.  With no started point on a culprit, every started
        point is charged, so a poison point is still quarantined."""
        workers = {}
        for index in crashed:
            try:
                workers[index] = int(
                    Path(self._marker_dir, f"started-{index}").read_text()
                )
            except (OSError, ValueError):
                continue  # not started (or no pid): retries for free
        exits = self._stop_workers(kill=True)
        culprits = {
            index for index, pid in workers.items()
            if exits.get(pid, -signal.SIGTERM) not in (None, -signal.SIGTERM)
        }
        return culprits or set(workers)

    def _dispatch(self) -> None:
        """Put waiting points on a generation once any backoff elapsed."""
        if not self._waiting or time.monotonic() < self._resume_at:
            return
        if self._pool is None:
            self._marker_dir = tempfile.mkdtemp(prefix="repro-sweep-markers-")
            self._pool = ProcessPoolExecutor(**self._options)
        for position, index in enumerate(self._waiting):
            try:
                future = self._pool.submit(
                    _execute_serialized,
                    (index, *self._payloads[index], self._marker_dir),
                )
            except BrokenProcessPool:
                # Died between polls.  In-flight points report it on the
                # next poll; with none, a fresh generation starts now.
                del self._waiting[:position]
                if not self._futures:
                    self._end_generation(kill=True)
                return
            self._futures[future] = index
        self._waiting.clear()

    def _harvest(
        self, futures, finished: List[PointResult],
        timeout: Optional[float] = None,
    ) -> List[int]:
        """Retire settled ``futures`` into ``finished``; return the
        indices a broken pool took down.  A completed point's counts
        enter this process's :mod:`repro.obs` registry here."""
        broken: List[int] = []
        for future in futures:
            index = self._futures.pop(future)
            try:
                outcome, counts = future.result(timeout)
            except (BrokenProcessPool, _FuturesTimeout):
                broken.append(index)
                continue
            except Exception as error:
                result = dict(error=error)
            else:
                self._completed_any, self._rebuilds = True, 0
                obs.add(counts)
                result = dict(outcome=outcome)
            self._attempts[index] += 1
            finished.append(self._retire(index, **result))
        return broken

    def _retire(self, index: int, **result: Any) -> PointResult:
        self._payloads.pop(index)
        return PointResult(index, attempts=self._attempts.pop(index), **result)

    def _requeue(
        self, indices, charged, finished: List[PointResult],
        error_type, kind: str, message: str,
    ) -> None:
        """End this generation: charge the ``charged`` points an attempt
        (quarantining those past ``retries``), requeue the rest."""
        for index in indices:
            if index in charged:
                self._attempts[index] += 1
                if self._attempts[index] > self._retries:
                    finished.append(self._retire(
                        index, kind=kind, error=error_type(message.format(
                            index=index, attempts=self._attempts[index],
                            retries=self._retries,
                            timeout=self._point_timeout,
                        )),
                    ))
                    continue
            self._waiting.append(index)
        self._futures.clear()
        self._end_generation(kill=True)

    def _stop_workers(self, *, kill: bool) -> Dict[int, Optional[int]]:
        """Shut this generation's pool down (``kill`` terminates its
        workers: cancelling a running future is a no-op, so killing is
        the only way to reclaim a hung point); return each worker's exit
        code by pid."""
        if self._pool is None:
            return {}
        processes = list((self._pool._processes or {}).values())
        self._pool.shutdown(wait=not kill, cancel_futures=True)
        if kill:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=5)
        self._pool = None
        return {process.pid: process.exitcode for process in processes}

    def _end_generation(self, *, kill: bool) -> None:
        """Shut this generation down (see :meth:`_stop_workers`); back
        off before the next one."""
        self._stop_workers(kill=kill)
        if self._marker_dir is not None:
            shutil.rmtree(self._marker_dir, ignore_errors=True)
        self._marker_dir = None
        if self._waiting:
            self._rebuilds += 1
            self._resume_at = time.monotonic() + min(
                self._backoff * 2 ** (self._rebuilds - 1),
                _MAX_BACKOFF_SECONDS,
            )


def _execute_inline(
    index: int, scenario: Scenario, mode: str, results: str
) -> PointResult:
    """Execute one point in this process (sequential sweeps)."""
    try:
        maybe_fire(index)
        return PointResult(index, outcome=_execute(scenario, mode, results))
    except Exception as error:
        return PointResult(index, error=error)


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
        (``backoff * 2**(k-1)`` seconds after the ``k``-th rebuild in a
        row, capped at {max_backoff}s; a completed point resets ``k``).  Lower it in tests; raise it when crashes
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
        # Imported lazily: repro.store imports repro.scenario, whose
        # package init imports this module.
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

        counts_before = obs.snapshot()
        spill_path: Optional[Path] = None
        if spill_dir is not None:
            # A persistent spill directory is a cache tier for THIS
            # process too: point the parent cache at it before any
            # materialization, so a fresh process re-running the sweep
            # loads yesterday's .npz instead of re-running the generator.
            spill_path = Path(spill_dir)
            spill_path.mkdir(parents=True, exist_ok=True)
            GRAPH_CACHE.spill_dir = spill_path
        failures: Dict[int, PointFailure] = {}
        outcomes: Dict[int, Outcome] = dict(reused_outcomes)
        pool: Optional[PointPool] = None
        temp: Optional[tempfile.TemporaryDirectory] = None
        # Warm exactly what this mode will materialize: closed-form
        # stationary points need no graph (and stats-only kinds have
        # none to build); fallback kinds get the one-build-per-host
        # treatment as usual.
        warm_grid = _materializing_grid(pending_grid, mode)
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
            if warm_grid and spill_path is None:
                temp = tempfile.TemporaryDirectory(prefix="repro-graphs-")
                spill_path = Path(temp.name)
            pool = PointPool(
                workers,
                context=context,
                registrations=registrations,
                spill_path=spill_path,
                retries=retries,
                point_timeout=point_timeout,
                backoff=backoff,
            )
        try:
            if warm_grid and spill_path is not None:
                # Sequential sweeps honor a persistent tier too: load
                # what exists, spill what doesn't, so the next process
                # reuses it.
                _prepare_pool_graphs(warm_grid, spill_path)
            if pool is None:
                # Consecutive points that differ only in protocol or
                # dummies share one walk while this loop runs.
                sharing = sharing_walks()
                finished = (
                    _execute_inline(index, grid[index][1], mode, results)
                    for index in pending
                )
            else:
                sharing = contextlib.nullcontext()
                for index in pending:
                    pool.submit(index, grid[index][1].to_json(), mode, results)
                finished = pool.drain()
            with sharing:
                for point in finished:
                    if point.error is None:
                        outcomes[point.index] = point.outcome
                        _checkpoint(point.index, point.outcome)
                    elif on_error == "raise":
                        raise point.error
                    else:
                        failures[point.index] = PointFailure.from_error(
                            point.error, kind=point.kind,
                            attempts=point.attempts,
                            quarantined=point.kind != "exception",
                        )
        finally:
            if pool is not None:
                pool.close()
            if temp is not None:
                temp.cleanup()
        counts = obs.since(counts_before)
        cache_stats = CacheCounters(**{
            entry.name: counts.get(f"graph_cache.{entry.name}", 0)
            for entry in fields(CacheCounters)
        })
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
            outcome=outcomes.get(index),
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
