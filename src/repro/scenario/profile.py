"""The one ``t``-step profile: policy, planning, and block store.

Every user's position distribution after ``t`` rounds, ``P_i(t)``, is
a row of ``M^t`` (or of a schedule's round-by-round product) — the
``(n, n)`` profile.  :class:`ProfileStore` is the one memoized
evolution of it, for a static graph (a one-graph schedule) as for a
schedule: exact schedule accounting reads every column block, the
auditor's kernel sampler the whole panel, and the symmetric analysis
the one column of node 0.

For schedule accounting the whole profile dominated memory and once
capped schedules at 4096 nodes.  This module lifts the ceiling with one
panel engine governed by one knob, the **profile memory budget**: the
profile evolves in column blocks of ``B`` users, ``B`` being the widest
panel that fits the budget (``min(n, budget // (16·n))`` — one float64
panel plus equal headroom for the per-round product).

* One block (the whole profile fits): the panel stays **in memory**
  between calls, so an ascending-``rounds`` sweep continues it instead
  of restarting from one-hot.
* Several blocks: every completed block is written to an ``.npz`` under
  the spill root (through :mod:`repro.scenario.artifacts`, like the
  graph spill), so the memory high-water is ``O(n·B)`` and an
  ascending-``rounds`` sweep resumes each block from disk.

Either way one-hot columns stay sparse until they mix, so early rounds
cost ``O(nnz)`` not ``O(n·B)``, and every block width produces
**bit-identical** collision masses: the panel kernels apply the same
per-round products over the same operand bits
(:mod:`repro.graphs.dynamic` documents why), and every panel reduces
its columns with the same strictly-sequential summation.

For the million-node churn regime an optional **truncation** tolerance
(a *scenario* field — it changes results, so it is hashed and swept
like any other knob) drops per-entry mass below ``tol`` after every
round, keeping panels sparse on bounded-degree schedules.  The dropped
mass prices the error: truncated distributions are an elementwise lower
bound of the exact ones, so with per-user dropped mass ``δ_i`` the
exact collision lies in ``[‖Q_i‖², ‖Q_i‖² + 2·δ_i]``.  The accounting
feeds the theorems the conservative upper end and surfaces
``truncation_bound = 2·max_i δ_i`` in the payload.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.exceptions import ValidationError
from repro.graphs.dynamic import (
    GraphLike,
    _TransitionCache,
    evolve_panel_on_schedule,
    identity_panel,
    panel_collisions,
)
from repro.graphs.walks import _as_schedule
from repro.scenario import artifacts
from repro.testing import faults

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "ProfilePolicy",
    "ProfilePlan",
    "ProfileStore",
    "ScheduleAccounting",
    "get_profile_policy",
    "set_profile_policy",
    "profile_policy",
    "plan_profile",
    "profile_stats",
    "parse_memory_budget",
]

#: Default profile memory budget: laptop-class.  One in-memory block
#: serves schedules up to n ≈ 5792 (so every schedule the old 4096-node
#: cap admitted keeps an in-memory profile); spilled blocks take over
#: beyond that.
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024

#: Bytes budgeted per profile entry: the float64 panel itself plus
#: equal headroom for the per-round product that briefly coexists
#: with it.
_BYTES_PER_ENTRY = 16

#: Fault-injection channel the block loop fires after each block
#: (chaos tests kill the process mid-profile and assert the resume).
FAULT_CHANNEL = "profile"


@dataclass(frozen=True)
class ProfilePolicy:
    """How much memory schedule accounting may spend (never what it computes).

    The budget sets the panel width, not the results: every width
    returns bit-identical collision masses, so the policy lives
    process-wide (settable per worker, per serve process, per CLI flag)
    instead of inside the hashed :class:`~repro.scenario.spec.Scenario`.
    """

    memory_budget: int = DEFAULT_MEMORY_BUDGET

    def __post_init__(self) -> None:
        if int(self.memory_budget) < 1:
            raise ValidationError(
                f"profile memory budget must be positive, "
                f"got {self.memory_budget!r}"
            )


@dataclass(frozen=True)
class ProfilePlan:
    """The panel geometry :func:`plan_profile` chose for one schedule size."""

    block_size: int
    blocks: int

    @property
    def spill(self) -> bool:
        """Whether blocks go to disk (only a multi-block profile spills)."""
        return self.blocks > 1

    @property
    def strategy(self) -> str:
        """The payload label: ``"dense"`` for one block, else ``"blocked"``."""
        return "blocked" if self.spill else "dense"


_POLICY_LOCK = threading.Lock()
_POLICY = ProfilePolicy()


def get_profile_policy() -> ProfilePolicy:
    """The process-wide policy schedule accounting plans against."""
    with _POLICY_LOCK:
        return _POLICY


def set_profile_policy(policy: ProfilePolicy) -> ProfilePolicy:
    """Install ``policy`` process-wide; returns the previous one."""
    global _POLICY
    if not isinstance(policy, ProfilePolicy):
        raise ValidationError(
            f"expected a ProfilePolicy, got {type(policy).__name__}"
        )
    with _POLICY_LOCK:
        previous, _POLICY = _POLICY, policy
        return previous


@contextmanager
def profile_policy(**overrides: Any) -> Iterator[ProfilePolicy]:
    """Temporarily override policy fields for the ``with`` block.

    >>> with profile_policy(memory_budget=256 * 1024 * 1024):
    ...     repro.bound(scenario)
    """
    current = get_profile_policy()
    merged = ProfilePolicy(**{**asdict(current), **overrides})
    previous = set_profile_policy(merged)
    try:
        yield merged
    finally:
        set_profile_policy(previous)


_BUDGET_SUFFIXES = {
    "k": 1024,
    "m": 1024**2,
    "g": 1024**3,
    "t": 1024**4,
}


def parse_memory_budget(text: Union[str, int]) -> int:
    """Parse a human byte count — ``"512M"``, ``"2G"``, ``"4096"`` — to int.

    The one parser behind every ``--profile-budget`` flag.  Accepts a
    bare byte count or a number with a K/M/G/T binary suffix (optionally
    followed by ``B`` or ``iB``), case-insensitive.
    """
    if isinstance(text, int):
        value = text
    else:
        token = str(text).strip().lower()
        for tail in ("ib", "b"):
            if token.endswith(tail) and token != tail:
                token = token[: -len(tail)]
                break
        multiplier = 1
        if token and token[-1] in _BUDGET_SUFFIXES:
            multiplier = _BUDGET_SUFFIXES[token[-1]]
            token = token[:-1]
        try:
            value = int(float(token) * multiplier)
        except (ValueError, OverflowError):
            raise ValidationError(
                f"cannot parse memory budget {text!r}; expected bytes "
                "or a K/M/G/T-suffixed size like '512M'"
            ) from None
    if value < 1:
        raise ValidationError(
            f"profile memory budget must be positive, got {text!r}"
        )
    return value


def plan_profile(
    num_nodes: int, policy: Optional[ProfilePolicy] = None
) -> ProfilePlan:
    """The panel width for an ``n``-node schedule: the widest that fits.

    ``width = min(n, budget // (16·n))`` (at least 1): one float64
    panel plus equal headroom for the per-round product.
    """
    policy = policy or get_profile_policy()
    n = int(num_nodes)
    width = max(1, min(n, int(policy.memory_budget) // (_BYTES_PER_ENTRY * n)))
    return ProfilePlan(block_size=width, blocks=-(-n // width))


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
#: The engine's counters, kept in :mod:`repro.obs` as
#: ``profile_store.<name>``.
PROFILE_COUNTERS = (
    "dense_profiles",
    "blocked_profiles",
    "blocks_evolved",
    "blocks_resumed",
    "blocks_spilled",
    "spill_bytes",
    "truncated_profiles",
)


def profile_stats() -> Dict[str, int]:
    """Process-wide profile-store counters (serve reports these)."""
    counts = obs.snapshot()
    return {
        name: counts.get(f"profile_store.{name}", 0)
        for name in PROFILE_COUNTERS
    }


# ----------------------------------------------------------------------
# Accounting result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleAccounting:
    """What :meth:`GraphBundle.schedule_collision` computed, and how.

    ``sum_squared`` is the worst-user collision mass fed to the
    Theorem 5.3/5.5 bounds.  With ``truncation`` set it is the
    *conservative upper end* ``min(1, max_i(‖Q_i‖² + 2·δ_i))`` of the
    provable interval around the truncated mass — larger collision
    masses weaken amplification, so the reported epsilon stays sound —
    and ``truncation_bound`` is the interval width ``2·max_i δ_i``.
    Exact runs (``truncation=None``) report the mass itself and a zero
    bound.
    """

    sum_squared: float
    strategy: str
    block_size: int
    blocks: int
    steps: int
    truncation: Optional[float]
    truncation_bound: float
    exact: bool

    def payload(self) -> Dict[str, Any]:
        """JSON-ready form (the ``accounting`` key of bound payloads)."""
        return {
            "sum_squared": self.sum_squared,
            "strategy": self.strategy,
            "block_size": self.block_size,
            "blocks": self.blocks,
            "steps": self.steps,
            "truncation": self.truncation,
            "truncation_bound": self.truncation_bound,
            "exact": self.exact,
        }


def worst_user_mass(
    collisions: np.ndarray,
    dropped: np.ndarray,
    truncation: Optional[float],
) -> Tuple[float, float]:
    """The sound ``(sum_squared, truncation_bound)`` pair.

    Exact evolutions pass ``truncation=None`` and get the plain max.
    Truncated ones get the per-user upper end ``‖Q_i‖² + 2·δ_i`` (each
    user's exact mass provably lies below it), maxed and clamped to 1 —
    a collision mass can never exceed 1, and clamping toward larger
    values is the conservative direction anyway.
    """
    if truncation is None:
        return float(collisions.max()), 0.0
    upper = collisions + 2.0 * dropped
    return float(min(1.0, upper.max())), float(2.0 * dropped.max())


# ----------------------------------------------------------------------
# Block spill format
# ----------------------------------------------------------------------
_ANON_IDS = itertools.count()


def anonymous_identity() -> str:
    """A fresh store identity for bundles built outside the graph cache."""
    return f"anon-{os.getpid()}-{next(_ANON_IDS)}"


def store_identity(
    cache_key: Optional[str],
    laziness: float,
    truncation: Optional[float],
    block_size: int,
) -> str:
    """Stable on-disk identity of one (schedule, accounting-knobs) store.

    Everything that changes the bits of a spilled panel is in the key
    (the code version joins it in the artifact name); ``steps`` is
    deliberately *not* — that is the resume axis.
    """
    if cache_key is None:
        return anonymous_identity()
    return f"{cache_key}|{laziness!r}|{truncation!r}|{block_size}"


def _panel_arrays(
    panel: Union[np.ndarray, sp.spmatrix],
    dropped: np.ndarray,
    steps: int,
    start: int,
) -> Dict[str, np.ndarray]:
    """One evolved block as the arrays its spill file holds."""
    meta = {
        "steps": np.int64(steps),
        "start": np.int64(start),
        "dropped": np.asarray(dropped, dtype=np.float64),
    }
    if sp.issparse(panel):
        matrix = panel.tocsc()
        matrix.sort_indices()
        return {
            "kind": np.array("csc"),
            "data": matrix.data,
            "indices": matrix.indices,
            "indptr": matrix.indptr,
            "shape": np.asarray(matrix.shape, dtype=np.int64),
            **meta,
        }
    return {
        "kind": np.array("dense"),
        # Column-major, so the per-column reductions of a resumed panel
        # read contiguous memory.
        "values": np.asfortranarray(panel, dtype=np.float64),
        **meta,
    }


def _panel_from(
    archive: Mapping[str, np.ndarray], num_nodes: int, width: int
) -> Optional[Tuple[Union[np.ndarray, sp.csc_matrix], np.ndarray, int]]:
    """Inverse of :func:`_panel_arrays`, or ``None`` for a foreign block."""
    kind = str(archive["kind"])
    steps = int(archive["steps"])
    dropped = np.asarray(archive["dropped"], dtype=np.float64)
    if kind == "csc":
        panel: Union[np.ndarray, sp.csc_matrix] = sp.csc_matrix(
            (archive["data"], archive["indices"], archive["indptr"]),
            shape=tuple(archive["shape"]),
        )
    elif kind == "dense":
        panel = np.asarray(archive["values"], dtype=np.float64)
    else:
        return None
    if panel.shape != (num_nodes, width) or dropped.shape != (width,):
        return None
    if steps < 0:
        return None
    return panel, dropped, steps


# ----------------------------------------------------------------------
# The block store
# ----------------------------------------------------------------------
class ProfileStore:
    """Block-granular evolve/keep/resume for one ``t``-step profile.

    One store binds a schedule (or a static graph, walked as a
    one-graph schedule) to one set of result-affecting knobs (laziness,
    truncation, block size).  :meth:`panel` evolves one column block:
    it resumes from the block's kept evolution when one exists at fewer
    (or equal) rounds, evolves the remainder, and keeps the result.
    :meth:`collisions` walks every block through :meth:`panel` and
    reduces each to per-user collision mass.  ``spill=True`` keeps
    blocks as ``.npz`` files and **releases** each panel before the next
    block starts — the memory high-water is one panel.  ``spill=False``
    keeps the evolved panels in memory instead (what a one-block profile
    that fits the memory budget uses).

    Resume is bit-identical to a cold run: the kept operand bytes are
    exact (float64 ``.npz`` round-trips), and continuing a panel
    applies precisely the products a longer cold evolution would.
    A *descending* rounds request recomputes from one-hot (or from the
    caller's own shorter evolution, see :meth:`panel`) and never
    replaces a longer kept evolution with its shorter one.
    """

    def __init__(
        self,
        schedule: GraphLike,
        *,
        identity: str,
        block_size: int,
        laziness: float = 0.0,
        truncation: Optional[float] = None,
        directory: Optional[Union[str, Path]] = None,
        spill: bool = True,
    ):
        if int(block_size) < 1:
            raise ValidationError(
                f"block_size must be >= 1, got {block_size!r}"
            )
        self.schedule = _as_schedule(schedule)
        self.identity = str(identity)
        self.block_size = int(block_size)
        self.laziness = float(laziness)
        self.truncation = None if truncation is None else float(truncation)
        self.spill = bool(spill)
        self._spill_dir = directory
        self._last: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        # spill=False: block start -> (panel, dropped, steps).
        self._resident: Dict[int, Tuple[Any, np.ndarray, int]] = {}
        self._transitions = _TransitionCache(self.schedule, self.laziness)
        self._lock = threading.Lock()

    @property
    def directory(self) -> Path:
        """Where this store's blocks live on disk."""
        return artifacts.panel_directory(self._spill_dir, self.identity)

    def block_path(self, start: int) -> Path:
        return self.directory / f"block_{int(start):08d}.npz"

    @property
    def num_blocks(self) -> int:
        return -(-self.schedule.num_nodes // self.block_size)

    def _kept(self, start: int, width: int):
        """The kept ``(panel, dropped, steps)`` of one block, or ``None``."""
        if not self.spill:
            with self._lock:
                return self._resident.get(start)
        return artifacts.read(
            self.block_path(start),
            lambda archive: _panel_from(
                archive, self.schedule.num_nodes, width
            ),
        )

    def _keep(
        self, start: int, panel: Any, dropped: np.ndarray, steps: int
    ) -> None:
        if not self.spill:
            with self._lock:
                kept = self._resident.get(start)
                if kept is None or kept[2] < steps:
                    self._resident[start] = (panel, dropped, steps)
            return
        written = artifacts.write(
            self.block_path(start),
            _panel_arrays(panel, dropped, steps, start),
            compress=False,
        )
        obs.count("profile_store.blocks_spilled")
        obs.count("profile_store.spill_bytes", written)

    def panel(
        self,
        steps: int,
        start: int = 0,
        *,
        since: Optional[Tuple[Any, np.ndarray, int]] = None,
    ) -> Tuple[Any, np.ndarray]:
        """The block starting at user ``start`` after ``steps`` rounds.

        Returns ``(panel, dropped)``: the ``(n, B)`` column panel —
        sparse while its columns are still mostly one-hot, else dense —
        and each column's dropped mass (all zeros without truncation).
        The block resumes from the closest evolution at fewer (or equal)
        rounds — the kept one, or ``since``, a ``(panel, dropped,
        steps)`` the caller got from this store — else starts from
        one-hot; a longer evolution is kept.  A caller that walks up
        several exponents below a longer kept evolution passes its last
        panel as ``since``, so it evolves each round once.  Callers must
        not modify the panel: an in-memory store hands out the kept
        array itself.
        """
        if int(steps) < 0:
            raise ValidationError(
                f"steps must be non-negative, got {steps}"
            )
        steps = int(steps)
        n = self.schedule.num_nodes
        stop = min(start + self.block_size, n)
        kept = self._kept(start, stop - start)
        bases = [
            base for base in (kept, since)
            if base is not None and base[2] <= steps
        ]
        if bases:
            panel, dropped, done = max(bases, key=lambda base: base[2])
            obs.count("profile_store.blocks_resumed")
        else:
            panel = identity_panel(n, start, stop)
            dropped = np.zeros(stop - start, dtype=np.float64)
            done = 0
        if done < steps:
            panel, dropped = evolve_panel_on_schedule(
                self.schedule,
                panel,
                steps - done,
                laziness=self.laziness,
                start_round=done,
                transitions=self._transitions,
                truncation=self.truncation,
                dropped=dropped,
            )
            obs.count("profile_store.blocks_evolved")
            if kept is None or kept[2] < steps:
                self._keep(start, panel, dropped, steps)
        return panel, dropped

    def collisions(self, steps: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-user ``(collision mass, dropped mass)`` after ``steps`` rounds.

        Both arrays have shape ``(n,)``; without truncation the second
        is all zeros.
        """
        steps = int(steps)
        with self._lock:
            if self._last is not None and self._last[0] == steps:
                return self._last[1].copy(), self._last[2].copy()
        n = self.schedule.num_nodes
        out = np.empty(n, dtype=np.float64)
        dropped_out = np.zeros(n, dtype=np.float64)
        for index, start in enumerate(range(0, n, self.block_size)):
            panel, dropped = self.panel(steps, start)
            stop = start + panel.shape[1]
            out[start:stop] = panel_collisions(panel)
            dropped_out[start:stop] = dropped
            # Chaos hook: lets tests kill this process between blocks
            # and assert the next run resumes from the spilled prefix.
            faults.maybe_fire(index, channel=FAULT_CHANNEL)
        with self._lock:
            self._last = (steps, out.copy(), dropped_out.copy())
        return out, dropped_out
