"""The Section 4.4 secure realization: encrypted network shuffling.

Runs ``A_all`` end to end with the double-encryption envelope on the
metered network simulator:

1. PKI setup — every user registers an E2E keypair, the server
   publishes its ``c2`` public key;
2. each user randomizes, serializes, and seals her report for the
   server, then wraps it for a random neighbor (at ``t = 0`` she keeps
   it);
3. every later round, each relay re-wraps the (still server-encrypted)
   inner ciphertexts she holds for the next hop, whose recipient opens
   her hop layer;
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

from repro.crypto.elgamal import Ciphertext
from repro.crypto.envelope import (
    open_envelope,
    seal_for_server,
    server_open,
    wrap_for_hop,
)
from repro.crypto.keys import PublicKeyInfrastructure, UserKeyring
from repro.exceptions import ProtocolError
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import MeterBoard
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative_int


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
) -> SecureRunResult:
    """Run encrypted ``A_all`` and return the server's decrypted view.

    One message at a time, as Section 4.4 states the protocol: every
    hop wraps the server-layer ciphertext for a uniformly random
    neighbor, who strips that hop layer on receipt.  ``rounds`` counts
    hops; at ``rounds = 0`` every user delivers her own sealed report,
    as ``A_all`` does at ``t = 0``.
    """
    rounds = check_non_negative_int(rounds, "rounds")
    num_users = graph.num_nodes
    if len(values) != num_users:
        raise ProtocolError(
            f"need one value per user: {len(values)} values, n={num_users}"
        )
    generator = ensure_rng(rng)
    meters = MeterBoard()

    # --- 1. PKI setup -------------------------------------------------
    pki = PublicKeyInfrastructure(rng=generator)
    keyrings: Dict[int, UserKeyring] = {
        ring.user_id: ring for ring in pki.register_all(num_users)
    }

    def hop(
        sender: int, inner: Ciphertext, into: Dict[int, List[Ciphertext]]
    ) -> None:
        """Wrap ``inner`` for a random neighbor, who strips the hop layer."""
        neighbor_ids = graph.neighbors(sender)
        if neighbor_ids.size == 0:
            raise ProtocolError(f"user {sender} has no neighbors to relay to")
        recipient = int(neighbor_ids[generator.integers(0, neighbor_ids.size)])
        envelope = wrap_for_hop(pki, recipient, inner, rng=generator)
        meters.meter(sender).record_send()
        inner = open_envelope(keyrings[recipient], envelope)
        # Honest-but-curious check: the relay must NOT be able to read
        # the report — the inner layer is a ciphertext.
        if not isinstance(inner, Ciphertext):
            raise ProtocolError("relay recovered a non-ciphertext layer")
        into[recipient].append(inner)
        meters.meter(recipient).record_receive()
        meters.meter(recipient).record_store()

    # --- 2. Randomize, seal, first hop --------------------------------
    # ``held[u]``: the server-layer ciphertexts user ``u`` holds.
    held: Dict[int, List[Ciphertext]] = {u: [] for u in range(num_users)}
    for user in range(num_users):
        value = (
            randomizer.randomize(values[user], generator)
            if randomizer is not None
            else values[user]
        )
        sealed = seal_for_server(pki, _serialize_value(value), rng=generator)
        if rounds == 0:
            held[user].append(sealed)
        else:
            hop(user, sealed, held)

    # --- 3. Relay rounds ----------------------------------------------
    for _ in range(rounds - 1):
        relayed: Dict[int, List[Ciphertext]] = {u: [] for u in range(num_users)}
        for user in range(num_users):
            for inner in held[user]:
                meters.meter(user).record_release()
                hop(user, inner, relayed)
        held = relayed

    # --- 4. Final delivery + server decryption ------------------------
    decrypted: List[Any] = []
    delivered_by: List[int] = []
    server_meter = meters.meter(SERVER_ID)
    for user in range(num_users):
        for inner in held[user]:
            meters.meter(user).record_send()
            meters.meter(user).record_release()
            server_meter.record_receive()
            decrypted.append(_deserialize_value(server_open(pki, inner)))
            delivered_by.append(user)

    if len(decrypted) != num_users:
        raise ProtocolError(
            f"secure A_all lost reports: {len(decrypted)} of {num_users}"
        )
    return SecureRunResult(
        decrypted_payloads=decrypted,
        delivered_by=np.asarray(delivered_by, dtype=np.int64),
        meters=meters,
        rounds=rounds,
    )
