"""The Section 4.4 secure realization: encrypted network shuffling.

Runs ``A_all`` end to end with the double-encryption envelope on the
metered network simulator:

1. PKI setup — every user registers an E2E keypair, the server
   publishes its ``c2`` public key;
2. each user randomizes, serializes, and seals her report for the
   server, then wraps it for a random neighbor;
3. every round, each relay opens her hop layer and re-wraps the (still
   server-encrypted) inner ciphertext for the next hop;
4. after ``t`` rounds users forward the inner ciphertexts to the
   server, which decrypts the ``c2`` layer.

The run asserts the protocol's two security claims as it goes: relays
only ever see server-layer ciphertexts (honest-but-curious safety), and
hop traffic is E2E-encrypted (adversarial-server safety).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.crypto.elgamal import Ciphertext, draw_ephemeral
from repro.crypto.envelope import (
    Envelope,
    open_batch,
    open_envelope,
    seal_batch,
    seal_for_server,
    server_open,
    wrap_batch,
    wrap_for_hop,
)
from repro.crypto.keys import PublicKeyInfrastructure, UserKeyring
from repro.exceptions import ProtocolError
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import MeterBoard
from repro.utils.mathutils import stable_argsort
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class SecureRunResult:
    """Outcome of a secure protocol run."""

    decrypted_payloads: List[Any]
    delivered_by: np.ndarray
    meters: MeterBoard
    rounds: int

    @property
    def num_reports(self) -> int:
        """Reports successfully decrypted by the server."""
        return len(self.decrypted_payloads)


def _serialize_value(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, default=float).encode()


def _deserialize_value(blob: bytes) -> Any:
    return json.loads(blob.decode())


def run_secure_protocol(
    graph: Graph,
    rounds: int,
    values: Sequence[Any],
    randomizer: Optional[LocalRandomizer] = None,
    *,
    rng: RngLike = None,
    batched: bool = True,
) -> SecureRunResult:
    """Run encrypted ``A_all`` and return the server's decrypted view.

    ``batched=True`` (default) computes the full hop trajectory first,
    then applies the envelope flow in per-round batch passes
    (:func:`repro.crypto.envelope.seal_batch` / ``wrap_batch`` /
    ``open_batch``) — same seeded outputs as the per-message loop
    (``batched=False``, the reference realization), message for message
    and meter for meter.  The two modes draw hop randomness in identical
    order; only the throwaway encryption ephemerals differ, which the
    outputs never depend on.
    """
    if len(values) != graph.num_nodes:
        raise ProtocolError(
            f"need one value per user: {len(values)} values, "
            f"n={graph.num_nodes}"
        )
    generator = ensure_rng(rng)
    if batched:
        return _run_batched(graph, rounds, values, randomizer, generator)
    return _run_per_message(graph, rounds, values, randomizer, generator)


def _run_per_message(
    graph: Graph,
    rounds: int,
    values: Sequence[Any],
    randomizer: Optional[LocalRandomizer],
    generator: np.random.Generator,
) -> SecureRunResult:
    """The reference per-message realization (dict-of-inboxes loop)."""
    meters = MeterBoard()

    # --- 1. PKI setup -------------------------------------------------
    pki = PublicKeyInfrastructure(rng=generator)
    keyrings: Dict[int, UserKeyring] = {
        ring.user_id: ring for ring in pki.register_all(graph.num_nodes)
    }

    # --- 2. Randomize, seal, first wrap -------------------------------
    inboxes: Dict[int, List[Envelope]] = {u: [] for u in range(graph.num_nodes)}
    for user in range(graph.num_nodes):
        value = (
            randomizer.randomize(values[user], generator)
            if randomizer is not None
            else values[user]
        )
        sealed = seal_for_server(pki, _serialize_value(value), rng=generator)
        neighbor_ids = graph.neighbors(user)
        if neighbor_ids.size == 0:
            raise ProtocolError(f"user {user} has no neighbors to relay to")
        first_hop = int(neighbor_ids[generator.integers(0, neighbor_ids.size)])
        envelope = wrap_for_hop(pki, first_hop, sealed, rng=generator)
        meters.meter(user).record_send()
        inboxes[first_hop].append(envelope)
        meters.meter(first_hop).record_receive()
        meters.meter(first_hop).record_store()

    # --- 3. Relay rounds ----------------------------------------------
    for _ in range(max(0, rounds - 1)):
        next_inboxes: Dict[int, List[Envelope]] = {
            u: [] for u in range(graph.num_nodes)
        }
        for user in range(graph.num_nodes):
            for envelope in inboxes[user]:
                inner = open_envelope(keyrings[user], envelope)
                # Honest-but-curious check: the relay must NOT be able to
                # read the report — the inner layer is a ciphertext.
                if not isinstance(inner, Ciphertext):
                    raise ProtocolError("relay recovered a non-ciphertext layer")
                neighbor_ids = graph.neighbors(user)
                next_hop = int(
                    neighbor_ids[generator.integers(0, neighbor_ids.size)]
                )
                rewrapped = wrap_for_hop(pki, next_hop, inner, rng=generator)
                meters.meter(user).record_send()
                meters.meter(user).record_release()
                next_inboxes[next_hop].append(rewrapped)
                meters.meter(next_hop).record_receive()
                meters.meter(next_hop).record_store()
        inboxes = next_inboxes

    # --- 4. Final delivery + server decryption ------------------------
    decrypted: List[Any] = []
    delivered_by: List[int] = []
    server_meter = meters.meter(SERVER_ID)
    for user in range(graph.num_nodes):
        for envelope in inboxes[user]:
            inner = open_envelope(keyrings[user], envelope)
            meters.meter(user).record_send()
            meters.meter(user).record_release()
            server_meter.record_receive()
            payload = server_open(pki, inner)
            decrypted.append(_deserialize_value(payload))
            delivered_by.append(user)

    if rounds >= 1 and len(decrypted) != graph.num_nodes:
        raise ProtocolError(
            f"secure A_all lost reports: {len(decrypted)} of {graph.num_nodes}"
        )
    return SecureRunResult(
        decrypted_payloads=decrypted,
        delivered_by=np.asarray(delivered_by, dtype=np.int64),
        meters=meters,
        rounds=rounds,
    )


def _run_batched(
    graph: Graph,
    rounds: int,
    values: Sequence[Any],
    randomizer: Optional[LocalRandomizer],
    generator: np.random.Generator,
) -> SecureRunResult:
    """Trajectory-first realization: schedule pass, then batch crypto.

    Pass A replays the per-message path's *randomness schedule* — the
    randomizer calls, hop draws, and one burned KEM ephemeral per
    encryption point, in the exact legacy order — which fixes every
    message's full hop trajectory and all meters without touching a
    ciphertext.  Pass B then runs the double-encryption envelope flow
    as one batch call per protocol phase.  Outputs are bit-identical to
    the loop: trajectories (hence delivery order, payloads, and meters)
    depend only on the draws Pass A reproduces.
    """
    num_users = graph.num_nodes
    meters = MeterBoard()

    # --- 1. PKI setup (identical to the per-message path) -------------
    pki = PublicKeyInfrastructure(rng=generator)
    keyrings: Dict[int, UserKeyring] = {
        ring.user_id: ring for ring in pki.register_all(num_users)
    }

    # --- Pass A: randomness schedule + trajectory ---------------------
    neighbor_lists = [graph.neighbors(user) for user in range(num_users)]
    blobs: List[bytes] = []
    first_hops = np.empty(num_users, dtype=np.int64)
    for user in range(num_users):
        value = (
            randomizer.randomize(values[user], generator)
            if randomizer is not None
            else values[user]
        )
        blobs.append(_serialize_value(value))
        draw_ephemeral(generator)  # seal_for_server's KEM draw
        neighbor_ids = neighbor_lists[user]
        if neighbor_ids.size == 0:
            raise ProtocolError(f"user {user} has no neighbors to relay to")
        first_hops[user] = neighbor_ids[
            generator.integers(0, neighbor_ids.size)
        ]
        draw_ephemeral(generator)  # wrap_for_hop's KEM draw

    # Message j originates at user j.  ``order`` is the per-message event
    # sequence: ascending holder, inbox arrival order within a holder.
    holders = first_hops
    order = stable_argsort(holders)
    hop_trajectory = [holders]
    sent = np.ones(num_users, dtype=np.int64)
    received = np.bincount(holders, minlength=num_users)
    current = received.copy()
    peak = received.copy()
    for _ in range(max(0, rounds - 1)):
        next_hops = np.empty(num_users, dtype=np.int64)
        for message in order:
            neighbor_ids = neighbor_lists[holders[message]]
            next_hops[message] = neighbor_ids[
                generator.integers(0, neighbor_ids.size)
            ]
            draw_ephemeral(generator)  # the re-wrap's KEM draw
        receipts = np.bincount(next_hops, minlength=num_users)
        # Peak replay: while senders with id < u are processed, u still
        # holds everything she kept plus their deliveries; her own
        # processing then drains her, and later senders refill her to
        # ``receipts``.  The per-message interleaving peaks at one of
        # those two watermarks.
        from_lower = np.bincount(
            next_hops[holders < next_hops], minlength=num_users
        )
        np.maximum(peak, current + from_lower, out=peak)
        np.maximum(peak, receipts, out=peak)
        sent += current
        received += receipts
        current = receipts
        holders = next_hops
        order = order[stable_argsort(holders[order])]
        hop_trajectory.append(holders)

    # Final delivery: every holder sends (and releases) all she holds.
    sent += current
    final_current = np.zeros(num_users, dtype=np.int64)

    # --- Pass B: batched envelope flow --------------------------------
    sealed = seal_batch(pki, blobs, rng=generator)
    envelopes = wrap_batch(pki, hop_trajectory[0], sealed, rng=generator)
    for next_holders in hop_trajectory[1:]:
        inners = open_batch(keyrings, envelopes)
        for inner in inners:
            # Honest-but-curious check, as in the per-message path.
            if not isinstance(inner, Ciphertext):
                raise ProtocolError("relay recovered a non-ciphertext layer")
        envelopes = wrap_batch(pki, next_holders, inners, rng=generator)
    inners = open_batch(keyrings, envelopes)
    decrypted: List[Any] = [
        _deserialize_value(server_open(pki, inners[message]))
        for message in order
    ]
    delivered_by = holders[order]

    # Materialize the meter board the per-message loop would have built.
    for user in range(num_users):
        meter = meters.meter(user)
        meter.messages_sent = int(sent[user])
        meter.messages_received = int(received[user])
        meter.current_items = int(final_current[user])
        meter.peak_items = int(peak[user])
    meters.meter(SERVER_ID).record_receive(len(decrypted))

    if rounds >= 1 and len(decrypted) != num_users:
        raise ProtocolError(
            f"secure A_all lost reports: {len(decrypted)} of {num_users}"
        )
    return SecureRunResult(
        decrypted_payloads=decrypted,
        delivered_by=np.asarray(delivered_by, dtype=np.int64),
        meters=meters,
        rounds=rounds,
    )
