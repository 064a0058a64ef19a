"""The central adversary's view of a protocol run.

Per the paper's threat model (Section 3.3) the central adversary:

* sees every report delivered to the server, linked to the user who
  sent it in the *final* round;
* knows the graph and the position-probability distribution ``P^G``;
* can NOT trace intermediate hops (no traffic analysis) and users do
  not collude.

:class:`AdversaryView` captures exactly that interface, so empirical
privacy attacks (used in tests and the linkage benchmark) cannot
accidentally peek at more than the model allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class AdversaryView:
    """What the central analyzer observes after a protocol run.

    Attributes
    ----------
    num_users:
        Number of participating users ``n``.
    final_holder:
        ``final_holder[j]`` is the user who delivered report ``j`` to
        the server (the non-anonymous final-round link).
    report_payloads:
        The randomized payload of each report, in the same order.
    origin:
        Ground-truth originator of each report — available to the
        *simulator* for measuring linkage, never to a real adversary.
    """

    num_users: int
    final_holder: np.ndarray
    report_payloads: Sequence[object]
    origin: np.ndarray

    def linkage_accuracy(self, guess: np.ndarray) -> float:
        """Fraction of reports whose originator ``guess`` got right."""
        guess = np.asarray(guess, dtype=np.int64)
        if guess.shape != self.origin.shape:
            raise ValidationError(
                f"guess must assign one originator per report: got shape "
                f"{guess.shape}, need {self.origin.shape}"
            )
        return float(np.mean(guess == self.origin))

    def baseline_guess(self) -> np.ndarray:
        """The naive attack: guess that the final holder is the origin.

        Before any shuffling rounds this is exactly right; after mixing
        its accuracy should collapse toward ``max_i P_i(t)``.
        """
        return np.asarray(self.final_holder, dtype=np.int64).copy()

    def posterior_guess(self, position_distributions: np.ndarray) -> np.ndarray:
        """Bayes-optimal origin guess given per-origin position
        distributions.

        ``position_distributions[i]`` is ``P^G_i(t)`` — the distribution
        of where user ``i``'s report sits at the final round.  For each
        report the adversary picks the origin maximizing
        ``P_origin(final_holder)`` (uniform prior over origins).
        """
        matrix = np.asarray(position_distributions, dtype=np.float64)
        if matrix.shape != (self.num_users, self.num_users):
            raise ValidationError(
                f"need an (n, n) matrix of position distributions, "
                f"got {matrix.shape}"
            )
        # For report j delivered by user h, the posterior over origins i
        # is proportional to matrix[i, h].
        holders = np.asarray(self.final_holder, dtype=np.int64)
        return np.argmax(matrix[:, holders], axis=0)
