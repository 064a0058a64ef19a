"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can
catch a single base class.  Subclasses are grouped by subsystem.

The taxonomy is also the error contract of the public surfaces: every
exception type maps to one HTTP status (:func:`http_status_for`) and one
wire payload (:func:`error_payload`), and both the CLI and the serving
tier render that same payload — the error text a curl caller sees is
the error text the CLI prints.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, shape, or type)."""


class InvalidScenarioError(ValidationError):
    """A scenario payload could not be parsed or validated.

    Raised for malformed scenario JSON/dicts arriving through any
    surface (CLI file, HTTP body, library call) — the "your request is
    wrong" half of the taxonomy, mapped to HTTP 400.
    """


class ScheduleRefusedError(ValidationError):
    """A well-formed request asked for analysis that is unsound (or
    unsupported) on a dynamic graph schedule.

    Time-varying topologies have no stationary distribution, no mixing
    time, and no single ``M^t`` kernel; the operations that assume one
    refuse loudly instead of reporting a wrong epsilon.  The request
    itself parses fine — it is the combination the library rejects —
    so the serving tier maps this to HTTP 422, not 400.
    """


class JobNotFoundError(ReproError):
    """A job id does not name a known (or still retained) job.

    Raised by the serving tier's job store; mapped to HTTP 404.
    """


class ServiceBusyError(ReproError):
    """The serving tier's job queue is full; retry later.

    Raised by the serving tier when an enqueue would exceed the
    configured queue-depth cap; mapped to HTTP 429 with a
    ``Retry-After`` header (the ``retry_after`` attribute, seconds).
    """

    def __init__(self, message: str, *, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = int(retry_after)


class WorkerCrashError(ReproError):
    """A pool worker process died (OOM kill, segfault, ``os._exit``).

    The sweep engine rebuilds the pool and retries the in-flight points;
    this error surfaces only when a point keeps killing the pool past
    its retry budget (a *poison point*, quarantined rather than retried
    forever) or when the pool dies repeatedly without executing
    anything.  Mapped to HTTP 500 — the request was fine, the execution
    substrate was not.
    """


class ExecutionTimeoutError(ReproError):
    """A unit of work exceeded its configured wall-clock budget.

    Raised for sweep points past ``point_timeout`` (the hung worker is
    killed and the point retried or quarantined) and for serving-tier
    jobs past ``--job-timeout`` (the job is marked failed and its
    eventual result discarded).  Mapped to HTTP 504.
    """


class StoreError(ReproError):
    """Base class for campaign-store (results database) errors."""


class StoreVersionError(StoreError):
    """A results store's on-disk schema version cannot be used.

    Raised when a store file was written by a newer schema (refuse —
    downgrading silently would corrupt it) or by an older schema with
    no registered migration path.  Migratable versions are upgraded in
    place instead of raising.
    """


class GraphError(ReproError):
    """Base class for graph-substrate errors.

    Mapped to HTTP 422: the error describes the requested graph, not a
    server fault.
    """


class DisconnectedGraphError(GraphError):
    """The operation requires a connected graph, but the graph is not.

    The paper analyzes connected graphs only; disconnected graphs are a
    parallel composition of their components (Section 4.2).
    """


class BipartiteGraphError(GraphError):
    """The operation requires a non-bipartite graph (ergodicity,
    Theorem 4.3), but the graph is bipartite."""


class NotErgodicError(GraphError):
    """A random walk on the graph does not converge to a stationary
    distribution (the graph is disconnected or bipartite)."""


class CalibrationError(ReproError):
    """A synthetic dataset could not be calibrated to its target
    irregularity within tolerance."""


class PrivacyError(ReproError):
    """Base class for privacy-accounting errors."""


class InvalidPrivacyParameterError(PrivacyError, ValidationError):
    """An ``epsilon`` or ``delta`` value is outside its valid range."""


class AccountingError(ReproError):
    """A numerical solver behind a privacy figure failed.

    Raised when the Lanczos solve for the spectral gap does not converge
    or returns a non-finite eigenvalue: the Theorem 5.3-5.6 bounds and
    the mixing time cannot be priced, so the request fails loudly
    instead of surfacing a raw SciPy error.  Mapped to HTTP 500.
    """


class BudgetExceededError(PrivacyError):
    """A privacy accountant's budget has been exhausted."""


class ProtocolError(ReproError):
    """A distributed-protocol simulation reached an invalid state."""


class CryptoError(ReproError):
    """A (simulated) cryptographic operation failed, e.g. decrypting a
    ciphertext with the wrong private key."""


class SimulationError(ReproError):
    """The network simulator reached an inconsistent state."""


# ----------------------------------------------------------------------
# Exception -> HTTP mapping (shared by the CLI and the serving tier)
# ----------------------------------------------------------------------
#: Ordered (exception type, HTTP status) pairs; the first isinstance
#: match wins, so subclasses must precede their bases.
HTTP_STATUS_MAP = (
    (JobNotFoundError, 404),
    (ServiceBusyError, 429),
    (ScheduleRefusedError, 422),
    (GraphError, 422),
    (InvalidScenarioError, 400),
    (ValidationError, 400),
    (BudgetExceededError, 409),
    (ExecutionTimeoutError, 504),
    (WorkerCrashError, 500),
    (ReproError, 500),
)


def http_status_for(error: BaseException) -> int:
    """The HTTP status code an error maps to (500 for unknown types)."""
    for exception_type, status in HTTP_STATUS_MAP:
        if isinstance(error, exception_type):
            return status
    return 500


def error_payload(error: BaseException) -> Dict[str, Any]:
    """The canonical wire/console rendering of an error.

    Both the CLI and the HTTP service emit exactly this payload (the
    CLI prints ``message``, the service returns the JSON), so the error
    text is identical across surfaces by construction.
    """
    return {
        "error": type(error).__name__,
        "status": http_status_for(error),
        "message": str(error),
    }
