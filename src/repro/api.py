"""The documented public API surface of :mod:`repro`.

Everything a programmatic caller — a script, a notebook, or the serving
tier (:mod:`repro.serve`) — needs lives here, by name, with no reach-ins
into private modules:

Operations
    :func:`run`, :func:`bound`, :func:`stationary_bound`, :func:`audit`,
    :func:`sweep` — the five scenario entry points; :func:`build_graph`
    materializes a scenario's (memoized) graph, e.g. for a
    :class:`~repro.core.shuffler.NetworkShuffler`.
Payloads
    :func:`parse_scenario` (dict/JSON -> :class:`Scenario`, typed
    errors) and :func:`bound_payload` (a bound -> JSON-able dict).  A
    run or an audit renders itself: ``.summary()`` on a
    :class:`RunDigest`, a :class:`RunResult` (the summary of its
    :func:`digest_run`) or an :class:`AuditResult`.
Types
    :class:`Scenario`, :class:`RunResult`, :class:`RunDigest`,
    :class:`SweepResult`, :class:`AuditResult`,
    :class:`NetworkShuffleBound`.
Error taxonomy
    :class:`ReproError` and friends, plus :func:`http_status_for` /
    :func:`error_payload` — one exception -> HTTP status -> wire
    payload mapping shared by the CLI and the service;
    :class:`AccountingError` when the spectral-gap solve fails.
Cache telemetry
    :func:`cache_stats` / :func:`sampler_stats` — views of the
    graph-cache and kernel-sampler counters in :mod:`repro.obs`, the
    ones the serving tier's ``/stats`` reports.  They count this
    process's work plus what its pooled sweep points and served jobs
    did in workers, and never go down, so compare two readings;
    :func:`clear_graph_cache` drops resident graphs (not counts).
Exchange backend
    :func:`backend_info` — which round the array engine runs
    (``{"compiled_kernels": "numpy"}``: its one NumPy round), as the
    serving tier's ``/stats`` reports it.
Schedule accounting
    :class:`ProfilePolicy` plus :func:`get_profile_policy` /
    :func:`set_profile_policy` / :func:`profile_policy` — the
    process-wide memory budget that sets the panel width of
    dynamic-schedule collision profiles (one in-memory block when the
    profile fits, spilled column blocks otherwise);
    :func:`profile_stats`, the same kind of view of the out-of-core
    engine's counters.
Auditor planning
    :func:`resolve_method` — which Monte Carlo engine (``kernel`` or
    ``tiled``) an audit of a graph at a round count will run; the
    auditor decides this itself, no caller option overrides it.
Campaign store
    :class:`ResultsStore` / :func:`open_store` — the persistent results
    database behind ``sweep(store=...)`` incremental re-runs;
    :func:`store_aggregate` / :func:`store_diff` for cross-campaign
    queries; :func:`code_version`, the fingerprint results are keyed by.

The scenario registries remain extensible through
:mod:`repro.scenario.builders`; this module is the *stable* surface, so
additions are fine but renames and removals are breaking changes.
Removed so far: the process-wide switch that required JIT exchange
kernels and its HTTP 501 error type (named in CHANGES.md) went with the
JIT kernels they guarded; the engine has one NumPy round, so there is
no JIT to require.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from repro import obs
from repro.amplification.network_shuffle import NetworkShuffleBound
from repro.auditing.auditor import AuditResult, resolve_method
from repro.exceptions import (
    AccountingError,
    ExecutionTimeoutError,
    InvalidScenarioError,
    JobNotFoundError,
    ReproError,
    ScheduleRefusedError,
    ValidationError,
    WorkerCrashError,
    error_payload,
    http_status_for,
)
from repro.netsim.engine import backend_info
from repro.scenario.auditing import audit
from repro.scenario.cache import GRAPH_CACHE, seed_streams
from repro.scenario.profile import (
    DEFAULT_MEMORY_BUDGET,
    ProfilePolicy,
    get_profile_policy,
    parse_memory_budget,
    profile_policy,
    profile_stats,
    set_profile_policy,
)
from repro.scenario.runner import (
    RunDigest,
    RunResult,
    bound,
    build_graph,
    clear_graph_cache,
    digest_run,
    run,
    spill_graph,
    stationary_bound,
)
from repro.scenario.spec import Scenario
from repro.scenario.sweep import PointFailure, SweepResult, sweep
from repro.store import ResultsStore, code_version, open_store
from repro.store import aggregate as store_aggregate
from repro.store import diff as store_diff

__all__ = [
    "AccountingError",
    "AuditResult",
    "DEFAULT_MEMORY_BUDGET",
    "ExecutionTimeoutError",
    "InvalidScenarioError",
    "JobNotFoundError",
    "NetworkShuffleBound",
    "PointFailure",
    "ProfilePolicy",
    "ReproError",
    "ResultsStore",
    "RunDigest",
    "RunResult",
    "Scenario",
    "ScheduleRefusedError",
    "SweepResult",
    "ValidationError",
    "WorkerCrashError",
    "attach_spill",
    "audit",
    "backend_info",
    "bound",
    "bound_payload",
    "build_graph",
    "cache_stats",
    "clear_graph_cache",
    "code_version",
    "digest_run",
    "error_payload",
    "get_profile_policy",
    "http_status_for",
    "open_store",
    "parse_memory_budget",
    "parse_scenario",
    "profile_policy",
    "profile_stats",
    "resolve_method",
    "run",
    "sampler_stats",
    "seed_streams",
    "set_profile_policy",
    "spill_graph",
    "stationary_bound",
    "store_aggregate",
    "store_diff",
    "sweep",
]


def parse_scenario(payload: Union[Scenario, str, Mapping[str, Any]]) -> Scenario:
    """Coerce a JSON string or mapping into a validated :class:`Scenario`.

    The one scenario-ingestion path every surface shares: malformed
    input raises :class:`InvalidScenarioError` (HTTP 400) with the same
    message whether it arrived as a CLI file, an HTTP body, or a
    library argument.
    """
    if isinstance(payload, Scenario):
        return payload
    try:
        if isinstance(payload, str):
            return Scenario.from_json(payload)
        if isinstance(payload, Mapping):
            return Scenario.from_dict(payload)
    except json.JSONDecodeError as error:
        raise InvalidScenarioError(
            f"scenario is not valid JSON: {error}"
        ) from None
    except InvalidScenarioError:
        raise
    except ReproError as error:
        raise InvalidScenarioError(f"invalid scenario: {error}") from None
    raise InvalidScenarioError(
        "a scenario must be a Scenario, a JSON object, or a JSON string; "
        f"got {type(payload).__name__}"
    )


def bound_payload(result: NetworkShuffleBound) -> Dict[str, Any]:
    """JSON-able rendering of a closed-form guarantee.

    ``accounting`` describes how ``sum_squared`` was computed for
    dynamic-schedule bounds (strategy, block size, truncation bound); it
    is ``None`` for stationary and single-graph bounds.
    """
    return {
        "epsilon": result.epsilon,
        "delta": result.delta,
        "theorem": result.theorem,
        "epsilon0": result.epsilon0,
        "sum_squared": result.sum_squared,
        "n": result.n,
        "amplification_ratio": result.amplification_ratio,
        "amplified": result.amplified,
        "accounting": (
            None if result.accounting is None else dict(result.accounting)
        ),
    }


def _counters(prefix: str, *names: str) -> Dict[str, int]:
    counts = obs.snapshot()
    return {name: counts.get(f"{prefix}.{name}", 0) for name in names}


def cache_stats() -> Dict[str, int]:
    """Graph-cache counters (plus this process's resident bundle count).

    ``builds`` counts generator runs, ``memory_hits``/``disk_hits`` the
    tiers that answered instead; under the single-flight contract a
    warm, repeated workload shows ``hits > builds``.
    """
    stats = _counters("graph_cache", "builds", "memory_hits", "disk_hits")
    stats["requests"] = sum(stats.values())
    stats["resident"] = len(GRAPH_CACHE)
    return stats


def sampler_stats() -> Dict[str, int]:
    """Kernel-sampler counters: dense ``M^t`` sampler ``builds`` and
    the ``hits`` a memoized sampler answered instead."""
    return _counters("kernel_sampler", "builds", "hits")


def attach_spill(directory: Union[str, Path]) -> Path:
    """Attach a standing on-disk graph tier to the process-wide cache.

    The sweep engine's spill machinery as a cache tier: graph builds
    consult ``directory`` for ``.npz`` CSR spills before running the
    generator, :func:`spill_graph` writes new materializations there,
    and multi-block profiles spill under ``profiles/``, so both survive
    process restarts.  Every file is named by the code version
    (:mod:`repro.scenario.artifacts`): files another version wrote are
    ignored, a miss that rebuilds, and never served; a truncated or
    corrupt file is a miss too.  The fingerprint covers the repro
    sources only, not dependency versions.  Returns the (created)
    directory path.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    GRAPH_CACHE.spill_dir = path
    return path
