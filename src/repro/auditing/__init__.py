"""Empirical privacy auditing: measured lower bounds on epsilon.

The theorems give *upper* bounds on the central privacy loss; auditing
gives *lower* bounds from the attacker's side, via the standard
distinguishing game (Kairouz-Oh-Viswanath hypothesis-testing view of
DP): run the mechanism many times on adjacent inputs ``D`` / ``D'``,
threshold a test statistic, and convert the achieved false-positive /
false-negative rates into

    eps_hat = max( log((1 - delta - FNR) / FPR),
                   log((1 - delta - FPR) / FNR) ),

which every ``(eps, delta)``-DP mechanism must exceed.  Sandwiching the
mechanism between ``eps_hat`` and the theorem bound is the strongest
correctness evidence a reproduction can offer.
"""

from repro.auditing.auditor import (
    KERNEL_MAX_NODES,
    AuditResult,
    audit_local_randomizer,
    audit_network_shuffle,
    epsilon_lower_bound,
    report_sum_statistic,
    resolve_method,
    topk_evidence_statistic,
    weighted_evidence_statistic,
)

__all__ = [
    "AuditResult",
    "KERNEL_MAX_NODES",
    "audit_local_randomizer",
    "audit_network_shuffle",
    "epsilon_lower_bound",
    "report_sum_statistic",
    "resolve_method",
    "topk_evidence_statistic",
    "weighted_evidence_statistic",
]
