"""The :class:`NetworkShuffler` view: :func:`repro.run` for a caller-built graph.

A :class:`~repro.scenario.spec.Scenario` names its graph by spec and
seed.  A shuffler wraps a :class:`~repro.graphs.graph.Graph` the caller
already holds in a :class:`~repro.scenario.cache.GraphBundle` and drives
the scenario runner's bundle-level half with it: the same round
resolution, pre-flight checks, Theorem 5.3-5.6 dispatch and protocol
call as :func:`repro.run` and :func:`repro.bound`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.amplification.network_shuffle import NetworkShuffleBound
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.graphs.spectral import SpectralSummary
from repro.ldp.base import LocalRandomizer
from repro.protocols.reports import ProtocolResult
from repro.scenario.cache import GraphBundle
from repro.scenario.runner import (
    _bound_on,
    _empirical_epsilon,
    _preflight,
    _Settings,
    _simulate,
)
from repro.scenario.spec import _ANALYSES, _PROTOCOLS, _check_choice
from repro.utils.rng import RngLike
from repro.utils.validation import check_delta, check_epsilon


@dataclass(frozen=True)
class ShufflerConfig:
    """Resolved configuration of a :class:`NetworkShuffler`."""

    epsilon0: float
    delta: float
    protocol: str
    rounds: int
    analysis: str


class NetworkShuffler:
    """Network shuffling on a fixed communication graph.

    Parameters
    ----------
    graph:
        The communication network (must be ergodic: connected and
        non-bipartite, Theorem 4.3).
    epsilon0:
        Local randomizer budget the deployment will use.
    delta:
        Central failure probability for the amplification bounds, also
        used as the Lemma 5.1 ``delta2``.
    protocol:
        ``"all"`` (Algorithm 1) or ``"single"`` (Algorithm 2).
    rounds:
        Exchange rounds; ``None`` selects the mixing time
        ``alpha^{-1} log n`` (the paper's operating point).
    analysis:
        ``"stationary"`` (ergodic-graph bound, Theorems 5.3/5.5) or
        ``"symmetric"`` (exact k-regular tracking, Theorems 5.4/5.6 —
        requires a regular graph).
    """

    def __init__(
        self,
        graph: Graph,
        epsilon0: float,
        delta: float,
        *,
        protocol: str = "all",
        rounds: Optional[int] = None,
        analysis: str = "stationary",
    ):
        _check_choice(protocol, _PROTOCOLS, "protocol")
        _check_choice(analysis, _ANALYSES, "analysis")
        self.graph = graph
        self.epsilon0 = check_epsilon(epsilon0, "epsilon0")
        self.delta = check_delta(delta, "delta")
        self.protocol = protocol
        self.analysis = analysis
        self._bundle = GraphBundle(graph)
        settings = _Settings(protocol, analysis, self.epsilon0, self.delta, self.delta)
        self.rounds = _preflight(
            self._bundle, settings, None if rounds is None else int(rounds)
        )
        if self.rounds < 1:
            raise ValidationError(f"rounds must be >= 1, got {self.rounds}")
        self._settings = dataclasses.replace(settings, rounds=self.rounds)

    @property
    def spectral(self) -> SpectralSummary:
        """Spectral facts of the graph (gap, mixing time, Gamma_G)."""
        return self._bundle.summary

    @property
    def config(self) -> ShufflerConfig:
        """The resolved configuration."""
        return ShufflerConfig(
            epsilon0=self.epsilon0,
            delta=self.delta,
            protocol=self.protocol,
            rounds=self.rounds,
            analysis=self.analysis,
        )

    def central_guarantee(
        self, *, rounds: Optional[int] = None
    ) -> NetworkShuffleBound:
        """The central-DP guarantee of this deployment (paper theorems),
        at ``rounds`` (default: the configured rounds)."""
        steps = _preflight(self._bundle, self._settings, rounds)
        return _bound_on(self._bundle, self._settings, steps)

    def empirical_guarantee(self, result: ProtocolResult) -> float:
        """Theorem 6.1 accounting from a *realized* run's allocation.

        Tighter than :meth:`central_guarantee` because it skips the
        Lemma 5.1 concentration slack; valid for the observed run.
        """
        return _empirical_epsilon(self._settings, result)

    def run(
        self,
        values: Sequence[Any],
        randomizer: Optional[LocalRandomizer] = None,
        *,
        rng: RngLike = None,
    ) -> ProtocolResult:
        """Simulate the configured protocol on this graph.

        ``randomizer.epsilon`` must match the configured ``epsilon0`` —
        a mismatch would make :meth:`central_guarantee` meaningless.
        """
        return _simulate(
            self._bundle, self._settings, self.rounds,
            values=values, randomizer=randomizer, rng=rng,
        )
