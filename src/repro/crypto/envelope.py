"""The double-encryption envelope of the Section 4.4 protocol.

Lifecycle of a report:

1. The originator randomizes her value and **seals** it for the server:
   ``inner = Enc_{c2_pk}(report)``.  This layer survives the whole walk.
2. For each hop, the current holder **wraps** the inner ciphertext for
   the chosen neighbor: ``Enc_{c1_pk(neighbor)}(inner)``, and sends it.
3. The neighbor strips her hop layer (``open_envelope``), recovering
   the inner ciphertext — which she *cannot* read (server key), and
   either relays it again or forwards it to the server.
4. The server decrypts the inner layer with its private ``c2`` key.

Security properties exercised by the test-suite:

* an adversarial server observing hop traffic cannot read reports
  (hop layer);
* an honest-but-curious relay cannot read report contents
  (server layer);
* only PKI-registered users can be wrapped to (authentication).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from repro.crypto.elgamal import Ciphertext, decrypt, encrypt
from repro.crypto.keys import PublicKeyInfrastructure, UserKeyring
from repro.exceptions import CryptoError
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class Envelope:
    """A hop-layer ciphertext addressed to a specific relay."""

    recipient: int
    hop_ciphertext: Ciphertext


def _serialize_inner(inner: Ciphertext) -> bytes:
    payload = {
        "kem_share": inner.kem_share,
        "body": inner.body.hex(),
    }
    return json.dumps(payload, sort_keys=True).encode()


def _deserialize_inner(blob: bytes) -> Ciphertext:
    try:
        payload = json.loads(blob.decode())
        return Ciphertext(
            kem_share=int(payload["kem_share"]),
            body=bytes.fromhex(payload["body"]),
        )
    except (ValueError, KeyError, UnicodeDecodeError) as error:
        raise CryptoError(f"malformed inner ciphertext: {error}") from error


def seal_for_server(
    pki: PublicKeyInfrastructure, report: bytes, rng: RngLike = None
) -> Ciphertext:
    """Step 1: encrypt the randomized report under the server's ``c2`` key."""
    return encrypt(pki.server_public_key, report, rng)


def wrap_for_hop(
    pki: PublicKeyInfrastructure,
    recipient: int,
    inner: Ciphertext,
    rng: RngLike = None,
) -> Envelope:
    """Step 2: wrap the server-layer ciphertext for the next relay.

    Only PKI-registered recipients are valid — this is the protocol's
    authentication gate.
    """
    if not pki.is_registered(recipient):
        raise CryptoError(f"recipient {recipient} is not PKI-registered")
    hop = encrypt(pki.public_key_of(recipient), _serialize_inner(inner), rng)
    return Envelope(recipient=recipient, hop_ciphertext=hop)


def open_envelope(keyring: UserKeyring, envelope: Envelope) -> Ciphertext:
    """Step 3: a relay strips her hop layer, recovering the inner
    (still server-encrypted) ciphertext."""
    if envelope.recipient != keyring.user_id:
        raise CryptoError(
            f"envelope addressed to {envelope.recipient}, "
            f"not to user {keyring.user_id}"
        )
    blob = decrypt(keyring.e2e.private_key, envelope.hop_ciphertext)
    return _deserialize_inner(blob)


def server_open(pki: PublicKeyInfrastructure, inner: Ciphertext) -> bytes:
    """Step 4: the server decrypts the surviving ``c2`` layer."""
    return decrypt(pki.server_private_key, inner)

