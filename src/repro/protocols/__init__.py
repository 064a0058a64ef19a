"""Distributed protocols of network shuffling (Section 4.3).

* :func:`run_all_protocol` — Algorithm 1 (``A_all``): exchange for ``t``
  rounds, then every user sends *all* held reports to the server;
* :func:`run_single_protocol` — Algorithm 2 (``A_single``): exchange,
  then every user sends exactly one report — uniformly sampled from her
  held set, or a dummy ``A_ldp(0)`` if she holds none;
* :func:`fixed_size_responses` — Algorithm 3 (``A_fix``): the analysis
  device used by the Theorem 6.1 swap reduction;
* :func:`run_secure_protocol` — the Section 4.4 realization with the
  double-encryption envelope on the metered network simulator.

The runners exchange on :class:`repro.netsim.RoundBasedNetwork`, the
flat-array :class:`repro.netsim.VectorizedExchange`: a round costs a few
NumPy passes, scaling to millions of reports, and every entity is
metered.  Reports travel as arrays from randomizer
to server: user ``j``'s report is token ``j``, delivery and selection
are token-id vectors, and :class:`ProtocolResult` holds the delivered
origins and payloads, building its :class:`Report` list only when
``server_reports`` is read.  Their ``engine=`` spellings all select
this one exchange; :class:`repro.testing.oracle.FaithfulNetwork` is the
per-message reference the tests hold it to.  :func:`run_protocol` is the
one place a protocol name (``"all"``/``"single"``) selects its runner.
"""

from repro.exceptions import ValidationError
from repro.protocols.reports import Report, ProtocolResult
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.single_protocol import run_single_protocol
from repro.protocols.fixed_size import fixed_size_responses, swap_first_element
from repro.protocols.secure import SecureRunResult, run_secure_protocol


def run_protocol(
    protocol: str, graph, rounds: int, *, dummy_factory=None, **kwargs
) -> ProtocolResult:
    """Run Algorithm 1 (``"all"``) or 2 (``"single"``) on ``graph``.

    ``kwargs`` go to the runner as they are.  ``dummy_factory`` feeds
    Algorithm 2's empty-handed users; ``A_all`` has none and ignores it.
    """
    if protocol == "all":
        return run_all_protocol(graph, rounds, **kwargs)
    if protocol == "single":
        return run_single_protocol(
            graph, rounds, dummy_factory=dummy_factory, **kwargs
        )
    raise ValidationError(f"unknown protocol {protocol!r}")


__all__ = [
    "Report",
    "ProtocolResult",
    "run_all_protocol",
    "run_protocol",
    "run_single_protocol",
    "fixed_size_responses",
    "swap_first_element",
    "SecureRunResult",
    "run_secure_protocol",
]
