"""Fused exchange-round kernels for the array engine, JIT-compiled by numba.

:class:`~repro.netsim.engine.VectorizedExchange` advances a round as a
chain of separate NumPy passes — fault mask, mover split, degree gather,
hop draw, destination gather, a receipts bincount, the meter updates,
and a packed-key sort for the next iteration order
(:func:`repro.utils.mathutils.stable_argsort`) — each streaming the
token array through memory, with a Python-level trip between every
round.  When numba is installed (the ``repro[compiled]`` extra) the
engine instead runs the loops below, JIT-compiled to machine code: mover
selection, clamped hop offset, CSR destination gather, and all five
meter accumulations (sends / receipts / current / peak / held) in **one
pass** over the token array, with the next order built by an
O(tokens + nodes) counting sort that realizes the identical
permutation.  A multi-round driver keeps
fault-free static-graph campaigns out of the interpreter between rounds
entirely.  Without numba the engine runs its NumPy round; which of the
two a process runs is an install-time detail, reported by
:func:`backend_info` (and ``GET /stats``).

RNG contract (exact, not statistical)
-------------------------------------
The kernels consume the *same* random stream in the *same* order as the
engine's NumPy round and the per-message reference
(:class:`repro.testing.oracle.FaithfulNetwork`): the fault model's draw
first, then one uniform double per moving token in iteration order.
Uniforms are pre-drawn per round (``Generator.random(k)`` produces the
identical stream to ``k`` scalar calls) and, on the fused
multi-round path, for several rounds at once (``random(a)`` then
``random(b)`` is the identical stream to ``random(a + b)``) — so seeded
runs agree bit for bit whichever kernels ran (see
``tests/netsim/test_engine.py``).

Failure semantics
-----------------
With numba missing the engine silently uses its NumPy round; a process
that *requires* JIT speed (:func:`set_require_jit`, the CLI's
``--require-jit``) gets a loud
:class:`~repro.exceptions.BackendUnavailableError` instead of a silent
10x regression.  numba installed-but-broken always raises: a deployment
that shipped the extra asked for compiled speed.
"""

from __future__ import annotations

from importlib import util as _importlib_util
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import BackendUnavailableError

#: Whether the optional numba dependency is importable at all.
NUMBA_AVAILABLE = _importlib_util.find_spec("numba") is not None

#: Cap on a single pre-drawn uniform block for the fused multi-round
#: driver: ~16M doubles (128 MB).  Drawing per block instead of per
#: campaign bounds memory while leaving the RNG stream unchanged.
_UNIFORM_BLOCK = 1 << 24


# ----------------------------------------------------------------------
# Fused loop kernels (numba-compilable; also runnable as plain Python,
# which is how the test suite exercises the JIT code path without numba)
# ----------------------------------------------------------------------
def _round_loop(order, positions, offline, uniforms, degrees, indptr,
                indices, sends, receipts, kept, messages_sent,
                messages_received, current_items, peak_items, stay_buf,
                move_buf, new_order, cursors):
    """One exchange round, fused into a single pass over the tokens.

    Returns the mover count, or ``-1`` if a mover sits on an isolated
    node (callers pre-check, so ``-1`` marks an internal inconsistency).
    ``new_order`` receives the next round's iteration order via a stable
    counting sort: kept items first (old order), then arrivals in send
    order, per ascending holder — the exact permutation
    ``sequence[argsort(positions[sequence], kind="stable")]`` realizes.
    """
    num_nodes = degrees.shape[0]
    total = order.shape[0]
    for node in range(num_nodes):
        sends[node] = 0
        receipts[node] = 0
        kept[node] = 0
    stays = 0
    moves = 0
    for slot in range(total):
        token = order[slot]
        source = positions[token]
        if offline[source]:
            stay_buf[stays] = token
            stays += 1
            kept[source] += 1
        else:
            degree = degrees[source]
            if degree == 0:
                return -1
            hop = np.int64(uniforms[moves] * degree)
            if hop >= degree:  # clamp contract-violating draws (u == 1.0)
                hop = degree - 1
            destination = indices[indptr[source] + hop]
            positions[token] = destination
            move_buf[moves] = token
            moves += 1
            sends[source] += 1
            receipts[destination] += 1
    base = np.int64(0)
    for node in range(num_nodes):
        messages_sent[node] += sends[node]
        messages_received[node] += receipts[node]
        if offline[node]:
            held = current_items[node] + receipts[node]
        else:
            held = receipts[node]
        current_items[node] = held
        if held > peak_items[node]:
            peak_items[node] = held
        cursors[node] = base
        base += kept[node] + receipts[node]
    for slot in range(stays):
        token = stay_buf[slot]
        node = positions[token]
        new_order[cursors[node]] = token
        cursors[node] += 1
    for slot in range(moves):
        token = move_buf[slot]
        node = positions[token]
        new_order[cursors[node]] = token
        cursors[node] += 1
    return moves


def _rounds_loop(order, positions, uniforms, degrees, indptr, indices,
                 sends, receipts, messages_sent, messages_received,
                 current_items, peak_items, alt_order, cursors, rounds):
    """``rounds`` fault-free static-graph rounds without leaving the loop.

    Specialized for :class:`~repro.netsim.faults.NoFaults` on a static
    graph: every token moves every round, so the pre-drawn ``uniforms``
    hold ``rounds * total`` doubles and the iteration order ping-pongs
    between ``order`` and ``alt_order`` (after an odd number of rounds
    the final order lives in ``alt_order`` — the driver swaps).  Returns
    ``0``, or ``-1`` on an isolated holder (callers pre-check).
    """
    num_nodes = degrees.shape[0]
    total = order.shape[0]
    draw = 0
    source_order = order
    target_order = alt_order
    for _ in range(rounds):
        for node in range(num_nodes):
            sends[node] = 0
            receipts[node] = 0
        for slot in range(total):
            token = source_order[slot]
            source = positions[token]
            degree = degrees[source]
            if degree == 0:
                return -1
            hop = np.int64(uniforms[draw] * degree)
            draw += 1
            if hop >= degree:
                hop = degree - 1
            destination = indices[indptr[source] + hop]
            positions[token] = destination
            sends[source] += 1
            receipts[destination] += 1
        base = np.int64(0)
        for node in range(num_nodes):
            messages_sent[node] += sends[node]
            messages_received[node] += receipts[node]
            current_items[node] = receipts[node]
            if receipts[node] > peak_items[node]:
                peak_items[node] = receipts[node]
            cursors[node] = base
            base += receipts[node]
        for slot in range(total):
            token = source_order[slot]
            node = positions[token]
            target_order[cursors[node]] = token
            cursors[node] += 1
        swap = source_order
        source_order = target_order
        target_order = swap
    return 0


# ----------------------------------------------------------------------
# Implementation resolution (numba JIT with warm-up, else NumPy)
# ----------------------------------------------------------------------
#: Once-per-process resolution: ``implementation`` is ``"numba"``,
#: ``"numpy"`` or ``"broken"``; ``kernels`` holds the JIT-compiled
#: ``(round, rounds)`` pair when it is ``"numba"``.
_RESOLVED: Dict[str, object] = {
    "implementation": None, "error": None, "kernels": None,
}
_REQUIRE_JIT = False


def set_require_jit(flag: bool) -> bool:
    """Set the process-wide JIT requirement; returns the previous value.

    With the requirement on, this process must run numba kernels:
    constructing an array engine without a working numba JIT raises
    :class:`BackendUnavailableError` instead of silently running the
    NumPy round (the CLI's ``--require-jit``).
    """
    global _REQUIRE_JIT
    previous = _REQUIRE_JIT
    _REQUIRE_JIT = bool(flag)
    return previous


def require_jit_enabled() -> bool:
    """Whether the process-wide JIT requirement is on."""
    return _REQUIRE_JIT


def _warm_up(round_kernel: Callable, rounds_kernel: Callable) -> None:
    """Force JIT specialization on a 2-node toy so compile errors
    surface at resolution time, not mid-simulation."""
    degrees = np.array([1, 1], dtype=np.int64)
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    order = np.array([0], dtype=np.int64)
    positions = np.array([0], dtype=np.int64)
    offline = np.zeros(2, dtype=bool)
    uniforms = np.array([0.25], dtype=np.float64)
    node_buffers = [np.zeros(2, dtype=np.int64) for _ in range(7)]
    token_buffers = [np.zeros(1, dtype=np.int64) for _ in range(3)]
    sends, receipts, kept, sent, received, current, peak = node_buffers
    stay, move, new_order = token_buffers
    cursors = np.zeros(2, dtype=np.int64)
    status = round_kernel(order, positions, offline, uniforms, degrees,
                          indptr, indices, sends, receipts, kept, sent,
                          received, current, peak, stay, move, new_order,
                          cursors)
    if status != 1:
        raise RuntimeError(f"round kernel warm-up returned {status}")
    status = rounds_kernel(new_order, positions, uniforms, degrees,
                           indptr, indices, sends, receipts, sent,
                           received, current, peak, move, cursors, 1)
    if status != 0:
        raise RuntimeError(f"multi-round kernel warm-up returned {status}")


def _load_numba_kernels() -> Tuple[Callable, Callable]:
    import numba

    round_kernel = numba.njit(cache=True, nogil=True)(_round_loop)
    rounds_kernel = numba.njit(cache=True, nogil=True)(_rounds_loop)
    _warm_up(round_kernel, rounds_kernel)
    return round_kernel, rounds_kernel


def resolve_implementation(require_jit: Optional[bool] = None) -> str:
    """Resolve (once per process) which kernels the array engine runs.

    Returns ``"numba"`` or ``"numpy"``.  Raises
    :class:`BackendUnavailableError` when numba is installed but cannot
    JIT the kernels, or when JIT is required (argument, else the
    process-wide :func:`set_require_jit` flag) and unavailable.
    """
    required = _REQUIRE_JIT if require_jit is None else bool(require_jit)
    implementation = _RESOLVED["implementation"]
    if implementation is None:
        if NUMBA_AVAILABLE:
            try:
                _RESOLVED["kernels"] = _load_numba_kernels()
                implementation = "numba"
            except Exception as error:
                _RESOLVED["error"] = error
                implementation = "broken"
        else:
            implementation = "numpy"
        _RESOLVED["implementation"] = implementation
    if implementation == "broken":
        raise BackendUnavailableError(
            "numba is installed but failed to JIT the exchange kernels: "
            f"{_RESOLVED['error']}"
        )
    if required and implementation != "numba":
        raise BackendUnavailableError(
            "this process requires JIT exchange kernels but numba is not "
            "installed; install the repro[compiled] extra or drop the "
            "JIT requirement to run the NumPy round"
        )
    return implementation


def jit_kernels() -> Optional[Tuple[Callable, Callable]]:
    """The ``(round, rounds)`` kernels the array engine runs, or ``None``
    for its NumPy round.  Resolves (and raises) like
    :func:`resolve_implementation` under the process-wide flag."""
    if resolve_implementation() == "numba":
        return _RESOLVED["kernels"]
    return None


def backend_info() -> Dict[str, object]:
    """Introspection payload for ``/stats`` and the CLI: which kernels
    the array engine runs in this process."""
    try:
        implementation = resolve_implementation(require_jit=False)
    except BackendUnavailableError:
        implementation = "broken"
    return {
        "numba_available": NUMBA_AVAILABLE,
        "compiled_kernels": implementation,
        "require_jit": _REQUIRE_JIT,
    }
