"""Round-based message-passing network simulator.

The substrate the protocol simulators run on: users exchange reports in
synchronous rounds, a :class:`~repro.netsim.server.Server` collects
final reports, and every entity is metered (messages sent/received,
peak queue memory) so the Table 3 complexity comparison can be
*measured* rather than asserted.

The exchange runs on :class:`~repro.netsim.engine.VectorizedExchange`,
which keeps every in-flight report in flat NumPy arrays and advances a
round with a few gathers plus ``np.bincount`` metering, scaling to
millions of tokens.  The per-message reference simulator it is tested
against is :class:`repro.testing.oracle.FaithfulNetwork`.

An :class:`~repro.netsim.adversary.AdversaryView` records exactly what
the paper's threat model grants the central adversary: the linkage of
each final-round report to the user who sent it (but not to the report's
originator).
"""

from repro.netsim.engine import VectorizedExchange
from repro.netsim.metrics import EntityMeter, MeterBoard, VectorMeterBoard
from repro.netsim.network import RoundBasedNetwork
from repro.netsim.server import Server
from repro.netsim.adversary import AdversaryView
from repro.netsim.faults import AdversarialDropout, DropoutModel, NoFaults, IndependentDropout
from repro.netsim.collusion import (
    CollusionAttackResult,
    run_collusion_attack,
    simulate_walk_trajectories,
)

__all__ = [
    "EntityMeter",
    "MeterBoard",
    "VectorMeterBoard",
    "VectorizedExchange",
    "RoundBasedNetwork",
    "Server",
    "AdversaryView",
    "DropoutModel",
    "NoFaults",
    "IndependentDropout",
    "AdversarialDropout",
    "CollusionAttackResult",
    "run_collusion_attack",
    "simulate_walk_trajectories",
]
