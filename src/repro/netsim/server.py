"""The curator/server entity.

The server is *untrusted* in the shuffle threat model: it sees every
final-round report together with the identity of the user who sent it
(Section 3.3 — "the final-round reports are not anonymous").  The
simulator therefore records that linkage in an
:class:`~repro.netsim.adversary.AdversaryView` rather than hiding it.
"""

from __future__ import annotations

from typing import Any, List

from repro.exceptions import ValidationError
from repro.netsim.metrics import EntityMeter


class Server:
    """Collects final reports, remembering which user delivered each."""

    def __init__(self, meter: EntityMeter):
        self.meter = meter
        self._reports: List[Any] = []
        self._delivered_by: List[int] = []

    def receive(self, count: int) -> None:
        """Meter ``count`` arriving reports (received and stored).

        The token-level delivery charges the server through this alone:
        the protocols hold the delivered reports as arrays.
        """
        self.meter.record_receive(count)
        self.meter.record_store(count)

    def store(self, senders: List[int], payloads: List[Any]) -> None:
        """Keep reports whose arrival :meth:`receive` already metered."""
        if len(senders) != len(payloads):
            raise ValidationError(
                f"senders and payloads must have equal length, got "
                f"{len(senders)} and {len(payloads)}"
            )
        self._reports.extend(payloads)
        self._delivered_by.extend(int(sender) for sender in senders)

    @property
    def reports(self) -> List[Any]:
        """All collected reports, in delivery order."""
        return list(self._reports)

    @property
    def delivered_by(self) -> List[int]:
        """For each report, the user who delivered it (final-round link)."""
        return list(self._delivered_by)

    def __len__(self) -> int:
        return len(self._reports)
