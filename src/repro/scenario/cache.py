"""The shared graph cache behind the scenario runner and sweep engine.

One materialized graph serves every grid point (and, for pooled sweeps,
every worker) that references the same resolved ``(graph spec, seed)``
pair:

* in-process, bundles live in a bounded LRU keyed by the spec's
  canonical JSON — sequential sweeps and repeated ``run``/``bound``
  calls share them for free;
* across *fork*-started pool workers the warmed cache is inherited
  through copy-on-write memory;
* across *spawn*-started workers (and as a safety net under fork) the
  parent spills each distinct graph to an on-disk ``.npz`` CSR file
  (:mod:`repro.scenario.artifacts`, named by the code version) that
  workers load instead of re-running the generator.

Every path is counted (``graph_cache.*`` in :mod:`repro.obs`), so a
sweep can assert the contract the engine exists for: **each distinct
graph is built exactly once per host**.

The bundle also memoizes the expensive per-graph derivatives the
accounting and auditing layers keep asking for: the spectral summary,
the auditor's ``M^t`` endpoint samplers
(:class:`repro.auditing.auditor._KernelSampler`, keyed by ``(rounds,
laziness)``), and the one ``t``-step profile every exact consumer reads
— the rows of ``M^t`` (or of a schedule's product), kept by
:class:`~repro.scenario.profile.ProfileStore` panels.  Schedule
accounting reads every column block, the kernel sampler the whole
``(n, n)`` panel, and the symmetric analysis the single column of node
0; each store continues its longest evolution so far, so ascending
``rounds`` sweeps never restart a walk.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.exceptions import ScheduleRefusedError, ValidationError
from repro.graphs.connectivity import require_ergodic
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.graphs.io import from_arrays, to_arrays
from repro.graphs.spectral import SpectralSummary, spectral_summary
from repro.scenario import artifacts
from repro.scenario.profile import (
    ProfileStore,
    ScheduleAccounting,
    get_profile_policy,
    plan_profile,
    store_identity,
    worst_user_mass,
)
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class SeedStreams:
    """The child generators derived from a scenario seed."""

    graph: np.random.Generator
    values: np.random.Generator
    protocol: np.random.Generator
    audit: np.random.Generator


def seed_streams(seed: int) -> SeedStreams:
    """Derive the (graph, values, protocol, audit) generators from ``seed``.

    This is the public determinism contract: hand-wired pipelines that
    want to reproduce ``run(scenario)`` exactly should draw their
    generators from here.  The ``audit`` stream is the fourth
    SeedSequence child, so adding it left the first three — and every
    pre-existing seeded run — bit-identical.
    """
    graph_rng, values_rng, protocol_rng, audit_rng = spawn_rngs(int(seed), 4)
    return SeedStreams(
        graph=graph_rng,
        values=values_rng,
        protocol=protocol_rng,
        audit=audit_rng,
    )


class GraphBundle:
    """A materialized graph plus its lazily computed derivatives.

    For a ``schedule`` spec the materialized object is a
    :class:`DynamicGraphSchedule`; spectral machinery (summary, mixing
    time) is undefined on it — accounting goes through the exact
    :meth:`schedule_collision` tracking instead.
    """

    #: How many distinct (rounds, laziness) kernel samplers stay
    #: resident per bundle.  Each holds dense (n, n) stage tables, so
    #: two suffices for the common sweep shapes (one warm kernel, one
    #: being superseded) without letting a long rounds axis pin
    #: hundreds of megabytes.
    _KERNEL_SAMPLER_CAP = 2

    #: How many profile stores stay cached per bundle (one per distinct
    #: (laziness, truncation, block size)).  Spilling stores hold only
    #: their last collision vector between calls, and an in-memory
    #: store holds at most one ``(n, n)`` panel, so at most two such
    #: panels stay resident per bundle.
    _PROFILE_STORE_CAP = 2

    def __init__(self, graph: Union[Graph, DynamicGraphSchedule]):
        self.graph = graph
        self._summary: Optional[SpectralSummary] = None
        self._ergodic = False
        # Profile stores keyed by the knobs that change a panel's bits
        # (laziness, truncation, block size) plus the spill root they
        # write under.
        self._profile_stores: "OrderedDict[tuple, ProfileStore]" = (
            OrderedDict()
        )
        #: The graph-cache key this bundle was published under (set by
        #: GraphCache.bundle).  Profile spills derive their on-disk
        #: identity from it, so every process resolving the same
        #: resolved spec shares one block directory.
        self.cache_key: Optional[str] = None
        # Auditor kernel samplers keyed (rounds, laziness).
        self._kernel_samplers: OrderedDict[Tuple[int, float], Any] = (
            OrderedDict()
        )
        #: Whether the build provably ignored the seed-derived graph
        #: stream (set by the cache; drives spec-keyed sharing/spill).
        self.seed_independent = False
        # Derivative memos are filled lazily; the serving tier's event
        # loop (sync bound queries) and a caller's own threads may share
        # one bundle, so fills must be serialized.
        self._derive_lock = threading.RLock()

    @property
    def is_schedule(self) -> bool:
        return isinstance(self.graph, DynamicGraphSchedule)

    @property
    def summary(self) -> SpectralSummary:
        if self.is_schedule:
            raise ScheduleRefusedError(
                "a dynamic graph schedule has no spectral summary (no "
                "single mixing time / stationary distribution); set "
                "`rounds` explicitly and use analysis='stationary' — "
                "schedule accounting tracks the exact collision mass"
            )
        with self._derive_lock:
            if self._summary is None:
                self._summary = spectral_summary(self.graph)
            return self._summary

    def require_ergodic(self) -> None:
        """Raise NotErgodicError unless the walk mixes (checked once)."""
        with self._derive_lock:
            if self._summary is None and not self._ergodic:
                require_ergodic(self.graph)
                self._ergodic = True

    def schedule_collision(
        self, steps: int, laziness: float, *,
        truncation: Optional[float] = None,
    ) -> ScheduleAccounting:
        """Worst-user collision mass after ``steps`` scheduled rounds.

        Tracks every user's exact position distribution and returns
        ``max_i sum_j P^i_j(t)^2`` — the sound per-user value the
        Theorem 5.3/5.5 bounds consume, with no stationarity
        assumption — wrapped in a :class:`ScheduleAccounting` that
        records how it was computed.

        The panel width is planned per call from the process-wide
        :class:`~repro.scenario.profile.ProfilePolicy` memory budget.
        A profile that fits is one block kept in memory, so an
        ascending-``rounds`` sweep continues the longest evolution so
        far (bit-identical to from-scratch); a larger one evolves in
        column blocks spilled to (and resumed from) the graph cache's
        spill directory.  Every block width produces bit-identical
        masses.  With ``truncation`` set, sub-tolerance entries are
        dropped each round and the returned accounting carries the
        provable additive bound on the mass that error can hide.
        """
        plan = plan_profile(self.graph.num_nodes, get_profile_policy())
        store = self.profile_store(
            laziness, plan.block_size, truncation=truncation, spill=plan.spill
        )
        collisions, dropped = store.collisions(steps)
        obs.count(
            "profile_store.dense_profiles"
            if plan.blocks == 1 and truncation is None
            else "profile_store.blocked_profiles"
        )
        if truncation is not None:
            obs.count("profile_store.truncated_profiles")
        sum_squared, truncation_bound = worst_user_mass(
            collisions, dropped, truncation
        )
        return ScheduleAccounting(
            sum_squared=sum_squared,
            strategy=plan.strategy,
            block_size=plan.block_size,
            blocks=plan.blocks,
            steps=int(steps),
            truncation=truncation,
            truncation_bound=truncation_bound,
            exact=truncation is None,
        )

    def profile_store(
        self,
        laziness: float,
        block_size: int,
        *,
        truncation: Optional[float] = None,
        spill: bool = False,
    ) -> ProfileStore:
        """The (memoized) ``t``-step profile store of ``block_size`` columns.

        Schedule accounting passes its planned width, the kernel sampler
        ``n`` and the symmetric analysis ``1``.  A new in-memory store
        replaces any other of the same width, so the whole-profile
        panels of two lazinesses never pile up.  The spill root of a
        spilling store is resolved at call time from the process-wide
        cache, so attaching a spill directory mid-session (sweep setup,
        serve ``--spill-dir``) redirects subsequent profiles without
        rebuilding bundles.
        """
        block_size = int(block_size)
        root = GRAPH_CACHE.spill_dir if spill else None
        key = (
            float(laziness),
            None if truncation is None else float(truncation),
            block_size,
            None if root is None else str(root),
        )
        with self._derive_lock:
            store = self._profile_stores.get(key)
            if store is not None:
                self._profile_stores.move_to_end(key)
                return store
            if not spill:
                for stale in [
                    other for other, kept in self._profile_stores.items()
                    if not kept.spill and kept.block_size == block_size
                ]:
                    del self._profile_stores[stale]
            store = ProfileStore(
                self.graph,
                identity=store_identity(
                    self.cache_key, float(laziness), truncation, block_size
                ),
                block_size=block_size,
                laziness=laziness,
                truncation=truncation,
                directory=root,
                spill=spill,
            )
            self._profile_stores[key] = store
            while len(self._profile_stores) > self._PROFILE_STORE_CAP:
                self._profile_stores.popitem(last=False)
            return store

    def kernel_sampler(self, rounds: int, laziness: float):
        """The auditor's dense ``M^t`` endpoint sampler, memoized.

        Keyed by ``(rounds, laziness)`` — together with the bundle's own
        spec+seed identity that is the full (graph spec, rounds,
        laziness) key.  Repeated audits of the same configuration
        (eps0/trials axes) reuse the sampler object outright; a new
        ``rounds`` value reads its stage kernels from the bundle's
        ``n``-wide profile store, so an ascending rounds-axis sweep
        evolves ``O(t_max)`` rounds in total instead of ``O(sum t_i)``,
        and no build evolves more rounds than a cold one.  Both reuse
        paths are bit-identical to a cold build.
        """
        from repro.auditing.auditor import _KernelSampler

        if self.is_schedule:
            raise ScheduleRefusedError(
                "the kernel sampler precomputes one dense t-step kernel; "
                "a dynamic schedule has no single kernel"
            )
        with self._derive_lock:
            key = (int(rounds), float(laziness))
            sampler = self._kernel_samplers.get(key)
            if sampler is not None:
                self._kernel_samplers.move_to_end(key)
                obs.count("kernel_sampler.hits")
                return sampler
            store = self.profile_store(key[1], self.graph.num_nodes)
            sampler = _KernelSampler(
                self.graph, key[0], key[1], panel=store.panel
            )
            obs.count("kernel_sampler.builds")
            self._kernel_samplers[key] = sampler
            while len(self._kernel_samplers) > self._KERNEL_SAMPLER_CAP:
                self._kernel_samplers.popitem(last=False)
            return sampler


@dataclass(frozen=True)
class CacheCounters:
    """How the graph cache satisfied a sweep's requests: the
    ``graph_cache.<field>`` counts it added to :mod:`repro.obs`."""

    builds: int = 0
    memory_hits: int = 0
    disk_hits: int = 0

    @property
    def requests(self) -> int:
        """Total bundle requests observed."""
        return self.builds + self.memory_hits + self.disk_hits


def graph_cache_key(graph_payload: Mapping[str, Any], seed: int) -> str:
    """Canonical cache key of a resolved graph spec + scenario seed."""
    return json.dumps(
        {"graph": graph_payload, "seed": int(seed)}, sort_keys=True
    )


def spec_cache_key(graph_payload: Mapping[str, Any]) -> str:
    """Seedless identity of a graph spec (for seed-independent sharing)."""
    return json.dumps(graph_payload, sort_keys=True)


def scenario_cache_key(scenario: Any) -> str:
    """Canonical JSON identity of a *full* scenario.

    The whole-scenario analogue of :func:`graph_cache_key`: the same
    sorted-keys canonical JSON the graph cache uses, over every field a
    :class:`~repro.scenario.spec.Scenario` serializes (graph, mechanism,
    protocol, rounds, seed, accounting knobs, ...).  Two scenarios with
    equal dicts produce byte-identical keys regardless of field order
    or how their params were first written.
    """
    return json.dumps(scenario.to_dict(), sort_keys=True)


def scenario_hash(scenario: Any) -> str:
    """SHA-256 hex digest of :func:`scenario_cache_key`.

    This is the identity the campaign store keys results by (together
    with a code-version fingerprint): stable across processes, hosts,
    and sessions for any scenario with the same canonical JSON.
    """
    return hashlib.sha256(
        scenario_cache_key(scenario).encode("utf-8")
    ).hexdigest()


class _PendingBuild:
    """Single-flight slot for one in-progress bundle build."""

    __slots__ = ("event", "bundle", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.bundle: Optional[GraphBundle] = None
        self.error: Optional[BaseException] = None


class GraphCache:
    """Bounded LRU of :class:`GraphBundle` with an optional disk tier.

    ``maxsize`` bounds how many materialized graphs stay resident (axes
    other than the graph share one bundle); ``spill_dir`` — when set —
    is consulted on a memory miss before the generator runs, and is how
    spawn-started sweep workers inherit the parent's materializations.

    The cache is thread-safe with *single-flight* builds: concurrent
    requests for the same key (the serving tier's simultaneous bound
    queries, a caller's own threads) run the generator exactly once —
    one caller builds, the rest wait on the pending slot and count as
    memory hits, so ``cache_stats`` keeps meaning "one build per host"
    under concurrency too.
    """

    def __init__(self, maxsize: int = 8):
        self.maxsize = maxsize
        self._bundles: OrderedDict[str, GraphBundle] = OrderedDict()
        # Spec-only aliases for graphs *proven* seed-independent (their
        # builder drew nothing from the graph stream): a seed-axis
        # sweep over a pinned-wiring-seed spec shares one bundle
        # instead of building per replica.
        self._spec_bundles: OrderedDict[str, GraphBundle] = OrderedDict()
        self.spill_dir: Optional[Path] = None
        self._lock = threading.RLock()
        self._pending: Dict[str, _PendingBuild] = {}

    # -- lookup --------------------------------------------------------
    def bundle(self, key: str, builder, *,
               spec_key: Optional[str] = None) -> GraphBundle:
        """The bundle for ``key``, from memory, disk, or ``builder()``.

        ``builder`` is a zero-argument callable returning ``(graph,
        seed_independent)`` — the flag says whether the build provably
        ignored the seed-derived stream (it drew nothing from it); it
        runs only on a full miss, and the counters record which tier
        answered.  ``spec_key`` is the seedless identity of the graph
        spec: when a build proves seed-independent, the bundle is also
        published under it, so other seeds resolve to the same bundle
        (one build, shared spectral/kernel derivatives) instead of
        rebuilding a bit-identical graph per seed.

        Concurrent callers with the same ``key`` coalesce: the first
        one in runs the disk probe / builder outside the lock, everyone
        else waits on its pending slot and records a memory hit.
        """
        with self._lock:
            cached = self._bundles.get(key)
            if cached is not None:
                self._bundles.move_to_end(key)
                obs.count("graph_cache.memory_hits")
                return cached
            if spec_key is not None:
                shared = self._spec_bundles.get(spec_key)
                if shared is not None:
                    self._spec_bundles.move_to_end(spec_key)
                    obs.count("graph_cache.memory_hits")
                    return shared
            pending = self._pending.get(key)
            if pending is None:
                pending = self._pending[key] = _PendingBuild()
                owner = True
            else:
                owner = False
            spill_dir = self.spill_dir
        if not owner:
            pending.event.wait()
            if pending.error is not None:
                raise pending.error
            obs.count("graph_cache.memory_hits")
            return pending.bundle
        try:
            graph = None
            seed_independent = False
            from_disk = False
            if spill_dir is not None:
                graph = artifacts.read(
                    artifacts.graph_path(spill_dir, key), from_arrays
                )
                if graph is None and spec_key is not None:
                    # Spec-keyed files exist only for graphs a previous
                    # build proved seed-independent, so a hit here is
                    # safe to share across seeds.
                    graph = artifacts.read(
                        artifacts.graph_path(spill_dir, spec_key),
                        from_arrays,
                    )
                    seed_independent = graph is not None
                from_disk = graph is not None
            if graph is None:
                graph, seed_independent = builder()
            bundle = GraphBundle(graph)
            bundle.seed_independent = bool(seed_independent)
            # The profile spill identity: deterministic across
            # processes (workers resolve the same resolved spec to the
            # same key), and seedless when the build provably ignored
            # the seed so replicas share one block directory.
            bundle.cache_key = (
                spec_key if (seed_independent and spec_key is not None)
                else key
            )
        except BaseException as error:
            with self._lock:
                self._pending.pop(key, None)
            pending.error = error
            pending.event.set()
            raise
        with self._lock:
            obs.count(
                "graph_cache.disk_hits" if from_disk else "graph_cache.builds"
            )
            self._bundles[key] = bundle
            while len(self._bundles) > self.maxsize:
                self._bundles.popitem(last=False)
            if seed_independent and spec_key is not None:
                self._spec_bundles[spec_key] = bundle
                while len(self._spec_bundles) > self.maxsize:
                    self._spec_bundles.popitem(last=False)
            self._pending.pop(key, None)
        pending.bundle = bundle
        pending.event.set()
        return bundle

    def spill(self, key: str, bundle: GraphBundle, directory: Path,
              *, spec_key: Optional[str] = None) -> Optional[Path]:
        """Persist ``bundle``'s graph for ``key`` under ``directory``.

        A seed-independent bundle spills under its ``spec_key`` instead,
        so a seed axis writes (and workers load) one copy rather than
        one per seed.  Dynamic schedules spill too (phase CSRs plus the
        selector spec, :func:`repro.graphs.io.to_arrays`) — except the
        rare schedule with a custom selector *callable*, which has no
        declarative form and returns ``None`` (spawn-started workers
        rebuild those; fork workers inherit the bundle either way).
        """
        if bundle.seed_independent and spec_key is not None:
            key = spec_key
        path = artifacts.graph_path(directory, key)
        if not path.exists():
            try:
                arrays = to_arrays(bundle.graph)
            except ValidationError:
                return None
            artifacts.write(path, arrays, compress=True)
        return path

    def clear(self, *, detach_spill: bool = True) -> None:
        """Drop memoized bundles (tests, or after changing builders).

        By default the disk tier is detached too: a full clear exists
        to force builders to run again, and a stale ``.npz`` would
        silently shadow new builder behavior — the next sweep with an
        explicit ``spill_dir`` re-attaches it.  Pass
        ``detach_spill=False`` to release memory only (what experiments
        do after a large-n grid) without dropping a standing disk tier
        someone else attached.  Counters are left alone: a clear
        changes residency, not history.
        """
        with self._lock:
            self._bundles.clear()
            self._spec_bundles.clear()
            if detach_spill:
                self.spill_dir = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._bundles)


#: The process-wide cache every runner/sweep call shares.
GRAPH_CACHE = GraphCache()
