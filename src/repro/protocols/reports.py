"""Report objects and protocol-run results.

A protocol run carries its reports as arrays indexed by token id: the
network is seeded with one token per user (token id == origin), and
the server's delivery is a vector of token ids.  :class:`ProtocolResult`
keeps those delivered ``origins`` and the delivered payloads in
delivery order; :attr:`ProtocolResult.server_reports`, the per-report
:class:`Report` list, is a view built from them on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, List, Optional

import numpy as np

from repro.netsim.adversary import AdversaryView
from repro.netsim.metrics import MeterBoard, VectorMeterBoard


def payload_list(batch: Any) -> List[Any]:
    """Per-value payloads of a ``randomize_batch`` result.

    Typed as :meth:`LocalRandomizer.randomize` returns them: a 1-D array
    becomes Python scalars (an object array its items as they are), a
    deeper array its list of rows, and any other sequence (the
    base-class loop's list) is kept as is.
    """
    if isinstance(batch, np.ndarray):
        return batch.tolist() if batch.ndim == 1 else list(batch)
    return list(batch)


def object_array(batch: Any) -> np.ndarray:
    """A 1-D object array of ``batch``'s :func:`payload_list` items."""
    items = payload_list(batch)
    return np.fromiter(items, dtype=object, count=len(items))


def take_payloads(batch: Optional[np.ndarray], tokens: np.ndarray) -> Optional[np.ndarray]:
    """The payloads of ``tokens`` from a per-token ``batch``, in order;
    ``None`` (a run without values) stays ``None``."""
    return None if batch is None else batch[tokens]


@dataclass(frozen=True)
class Report:
    """A randomized report traveling through the network.

    Attributes
    ----------
    origin:
        The user who generated the report (ground truth, simulator-only
        knowledge); ``-1`` marks a dummy report from ``A_single``.
    payload:
        The randomized value ``s_i = A_ldp(x_i)``.
    """

    origin: int
    payload: Any

    @property
    def is_dummy(self) -> bool:
        """Whether this is an ``A_single`` dummy report."""
        return self.origin < 0


@dataclass
class ProtocolResult:
    """Everything a protocol simulation produces.

    Attributes
    ----------
    protocol:
        ``"all"`` or ``"single"``.
    num_users:
        ``n``.
    rounds:
        Exchange rounds ``t`` executed before reporting.
    origins:
        For each server report, in delivery order, the user who
        generated it; ``-1`` marks a dummy.
    delivered_payloads:
        The payloads of the server reports, in delivery order: one
        array whose first axis indexes the reports (typed, or an object
        array of mixed per-report values), or ``None`` when no report
        carried a payload.  :meth:`payloads` reads it as a list.
    delivered_by:
        For each server report, the user who delivered it.
    allocation:
        ``L`` — reports held per user at the final round (before the
        single-protocol down-sampling).
    dummy_count:
        Number of dummy reports the server received (``A_single`` only).
    meters:
        Per-entity traffic/memory meters — the exchange engine's
        array-backed ``VectorMeterBoard``, or a ``MeterBoard`` from the
        per-message oracle (same query API, identical values for a
        seeded run).
    """

    protocol: str
    num_users: int
    rounds: int
    origins: np.ndarray
    delivered_payloads: Any
    delivered_by: np.ndarray
    allocation: np.ndarray
    dummy_count: int = 0
    meters: Optional[MeterBoard | VectorMeterBoard] = None

    @cached_property
    def server_reports(self) -> List[Report]:
        """Reports received by the server, in delivery order — built
        from :attr:`origins` and the payloads on first read."""
        return [
            Report(origin, payload)
            for origin, payload in zip(self.origins.tolist(), self.payloads())
        ]

    @property
    def real_reports(self) -> List[Report]:
        """Server reports excluding dummies."""
        return [report for report in self.server_reports if not report.is_dummy]

    def payloads(self, include_dummies: bool = True) -> List[Any]:
        """Payloads of the delivered reports, in delivery order: Python
        scalars where the payloads are 1-D, ndarray rows where 2-D."""
        delivered = self.delivered_payloads
        if delivered is None:
            delivered = np.full(self.origins.size, None, dtype=object)
        return payload_list(delivered if include_dummies else delivered[self.origins >= 0])

    def adversary_view(self) -> AdversaryView:
        """The central adversary's observation of this run."""
        return AdversaryView(
            num_users=self.num_users,
            final_holder=np.asarray(self.delivered_by, dtype=np.int64),
            report_payloads=self.payloads(),
            origin=np.array(self.origins, dtype=np.int64),
        )

    def check_conservation(self) -> bool:
        """``A_all`` invariant: every seeded report reaches the server."""
        if self.protocol != "all":
            return True
        return self.origins.size == self.num_users
