"""repro — Network Shuffling: Privacy Amplification via Random Walks.

A full reproduction of Liew, Takahashi, Takagi, Kato, Cao & Yoshikawa
(SIGMOD 2022): decentralized privacy amplification where users exchange
locally randomized reports in a random-walk fashion on a communication
graph, achieving shuffle-model-like central DP guarantees *without any
trusted centralized entity*.

Quick start — the declarative Scenario API::

    from repro import Scenario, run

    scenario = Scenario(
        graph={"kind": "k_regular", "params": {"degree": 8, "num_nodes": 1000}},
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        values={"kind": "bernoulli", "params": {"rate": 0.5}},
    )
    result = run(scenario)                  # simulate + account in one call
    print(result.central_epsilon)           # amplified central epsilon

or, for a graph you built yourself, through :class:`NetworkShuffler`,
a view over the same runner::

    from repro import NetworkShuffler
    from repro.graphs import random_regular_graph
    from repro.ldp import BinaryRandomizedResponse

    graph = random_regular_graph(8, 1000, rng=0)
    shuffler = NetworkShuffler(graph, epsilon0=1.0, delta=1e-6)
    print(shuffler.central_guarantee())     # amplified central epsilon
    result = shuffler.run([0, 1] * 500, BinaryRandomizedResponse(1.0), rng=1)

Package map (README.md, "Substitutions", explains the stand-in datasets):

========================  ==============================================
``repro.config``          the shared delta/seed defaults (a leaf module)
``repro.core``            NetworkShuffler (``repro.run`` on a caller-built
                          graph), campaigns, privacy accountant
``repro.graphs``          graph substrate, spectra, random walks
``repro.datasets``        calibrated Table 4 stand-in graphs
``repro.ldp``             local randomizers (RR, Laplace, PrivUnit, ...)
``repro.amplification``   Theorems 5.3-5.6 + baseline bounds
``repro.protocols``       Algorithms 1-3 + secure (encrypted) variant
``repro.netsim``          metered round-based network simulator
``repro.crypto``          simulation-grade PKI / double envelope
``repro.baselines``       Prochlo & mix-net simulators, central DP
``repro.estimation``      private mean / frequency estimation
``repro.experiments``     one module per paper table & figure
``repro.scenario``        declarative Scenario API: run / sweep / bound
``repro.api``             the documented stable facade for programmatic
                          callers (operations, payloads, error taxonomy)
``repro.serve``           asyncio HTTP serving tier
                          (``python -m repro serve``)
``repro.store``           persistent SQLite campaign store
                          (``python -m repro results``)
``repro.testing``         fault-injection harness for chaos-testing
                          the sweep engine
========================  ==============================================
"""

from repro.auditing.auditor import AuditResult
from repro.core.accounting import PrivacyAccountant
from repro.core.shuffler import NetworkShuffler
from repro.exceptions import ReproError
from repro.scenario import (
    PointFailure,
    RunDigest,
    RunResult,
    Scenario,
    SweepResult,
    audit,
    bound,
    run,
    stationary_bound,
    sweep,
)

__version__ = "1.6.0"

__all__ = [
    "AuditResult",
    "NetworkShuffler",
    "PrivacyAccountant",
    "PointFailure",
    "ReproError",
    "RunDigest",
    "RunResult",
    "Scenario",
    "SweepResult",
    "audit",
    "bound",
    "run",
    "stationary_bound",
    "sweep",
    "__version__",
]
