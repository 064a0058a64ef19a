"""Tests for PKI and the double-encryption envelope (Section 4.4)."""

from __future__ import annotations

import pytest

from repro.crypto.elgamal import Ciphertext, decrypt
from repro.crypto.envelope import (
    open_envelope,
    seal_for_server,
    server_open,
    wrap_for_hop,
)
from repro.crypto.keys import PublicKeyInfrastructure
from repro.exceptions import CryptoError


@pytest.fixture
def pki():
    infrastructure = PublicKeyInfrastructure(rng=0)
    keyrings = infrastructure.register_all(4)
    return infrastructure, {ring.user_id: ring for ring in keyrings}


class TestPKI:
    def test_registration(self, pki):
        infrastructure, keyrings = pki
        assert len(infrastructure) == 4
        for user_id in range(4):
            assert infrastructure.is_registered(user_id)
            assert infrastructure.public_key_of(user_id) == keyrings[
                user_id
            ].e2e.public_key

    def test_duplicate_registration_rejected(self, pki):
        infrastructure, _ = pki
        with pytest.raises(CryptoError):
            infrastructure.register_user(0)

    def test_unregistered_lookup_rejected(self, pki):
        infrastructure, _ = pki
        with pytest.raises(CryptoError):
            infrastructure.public_key_of(99)

    def test_server_keys_exist(self, pki):
        infrastructure, _ = pki
        assert infrastructure.server_public_key > 1
        assert infrastructure.server_private_key > 1


class TestEnvelopeLifecycle:
    def test_full_relay_chain(self, pki):
        """Seal -> wrap -> open -> rewrap -> open -> server decrypt."""
        infrastructure, keyrings = pki
        inner = seal_for_server(infrastructure, b"report-7", rng=1)
        env1 = wrap_for_hop(infrastructure, 1, inner, rng=2)
        recovered1 = open_envelope(keyrings[1], env1)
        env2 = wrap_for_hop(infrastructure, 2, recovered1, rng=3)
        recovered2 = open_envelope(keyrings[2], env2)
        assert server_open(infrastructure, recovered2) == b"report-7"

    def test_relay_cannot_read_report(self, pki):
        """Honest-but-curious safety: the hop-stripped layer is still a
        ciphertext the relay cannot decrypt."""
        infrastructure, keyrings = pki
        inner = seal_for_server(infrastructure, b"secret", rng=1)
        envelope = wrap_for_hop(infrastructure, 1, inner, rng=2)
        recovered = open_envelope(keyrings[1], envelope)
        assert isinstance(recovered, Ciphertext)
        with pytest.raises(CryptoError):
            decrypt(keyrings[1].e2e.private_key, recovered)

    def test_server_cannot_open_hop_layer(self, pki):
        """Adversarial-server safety: in-flight envelopes resist the
        server's own key."""
        infrastructure, _ = pki
        inner = seal_for_server(infrastructure, b"secret", rng=1)
        envelope = wrap_for_hop(infrastructure, 1, inner, rng=2)
        with pytest.raises(CryptoError):
            decrypt(infrastructure.server_private_key, envelope.hop_ciphertext)

    def test_wrong_relay_cannot_open(self, pki):
        infrastructure, keyrings = pki
        inner = seal_for_server(infrastructure, b"x", rng=1)
        envelope = wrap_for_hop(infrastructure, 1, inner, rng=2)
        with pytest.raises(CryptoError):
            open_envelope(keyrings[2], envelope)

    def test_unregistered_recipient_rejected(self, pki):
        """The PKI authentication gate."""
        infrastructure, _ = pki
        inner = seal_for_server(infrastructure, b"x", rng=1)
        with pytest.raises(CryptoError):
            wrap_for_hop(infrastructure, 42, inner, rng=2)

    def test_binary_payload(self, pki):
        infrastructure, keyrings = pki
        payload = bytes(range(256))
        inner = seal_for_server(infrastructure, payload, rng=1)
        envelope = wrap_for_hop(infrastructure, 0, inner, rng=2)
        recovered = open_envelope(keyrings[0], envelope)
        assert server_open(infrastructure, recovered) == payload

