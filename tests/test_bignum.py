"""Native modular exponentiation (repro.crypto.bignum) and the RSA paths
routed through it: differential against builtin ``pow``, golden key and
signature pins, and the fault-attack self-check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.bignum import powmod
from repro.crypto.hashes import sha256_bytes, sha256_hex
from repro.crypto.rsa import generate_keypair
from repro.util.errors import SignatureError


@st.composite
def _odd_modulus(draw):
    bits = draw(st.integers(min_value=2, max_value=4096))
    low = max(3, 1 << (bits - 1))
    return draw(st.integers(min_value=low, max_value=(1 << bits) - 1)) | 1


@st.composite
def _operands(draw):
    mod = draw(_odd_modulus())
    base = draw(st.one_of(st.integers(0, mod - 1),
                          st.integers(mod, 1 << (mod.bit_length() + 64))))
    exp = draw(st.one_of(st.just(0), st.just(1),
                         st.integers(0, (1 << mod.bit_length()) - 1),
                         st.integers(1 << (mod.bit_length() - 1),
                                     (1 << mod.bit_length()) - 1)))
    return base, exp, mod


class TestPowmod:
    @given(_operands())
    @settings(max_examples=80, deadline=None)
    def test_matches_builtin_pow(self, operands):
        base, exp, mod = operands
        assert powmod(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize("bits", [2, 3, 64, 1024, 2048, 4096])
    def test_edge_exponents_and_oversized_base(self, bits):
        mod = (1 << bits) - 1 | 1
        base = (mod << 7) + 12345
        for exp in (0, 1, mod - 1, (1 << bits) - 1):
            assert powmod(base, exp, mod) == pow(base, exp, mod)

    def test_negative_base_reduced_like_pow(self):
        assert powmod(-5, 3, 7) == pow(-5, 3, 7)

    @pytest.mark.parametrize("args", [(2, 3, 8), (2, 3, 1), (2, -3, 7)])
    def test_rejects_unsupported_operands(self, args):
        with pytest.raises(ValueError):
            powmod(*args)


# sha256 of the big-endian modulus of generate_keypair(bits, seed), pinned
# from the builtin-pow implementation: the Miller-Rabin witness stream is
# unchanged, so seeded keys must come out bit-identical.
_KEY_PINS = {
    (1024, 0): "eeb533b1e2874f0267aee48419ad7270705784ad910b8c89ceff846e11e6883f",
    (1024, 1): "f5acaee61cb6c9f9dfb59f13e3479b1d6b946ad212127a94957b0d60bd3b46bb",
    (1024, 0xA11CE): "413563012be5798b8c793c47659261c70377d0d343e8c92ac2d70b23b6ffe0a4",
    (2048, 1): "f0b2076a98de2bb3fc871073a957620e5482e2c443cf95447a804aed1484b061",
    (2048, 7): "ad0006cbcc61b23dc08618f7cd39eb521b30bd9940a5c77c1f56098ab181130d",
}
_SIGNATURE_PIN = "9be676f3ef1578fe1881d84d1e73b459ce689a17ca26ee76b38977c30b17eb00"


class TestRsaOverNativePowmod:
    @pytest.mark.parametrize("bits,seed", sorted(_KEY_PINS))
    def test_seeded_keypair_pins(self, bits, seed):
        key = generate_keypair(bits, seed=seed)
        assert sha256_hex(key.n.to_bytes(bits // 8, "big")) == _KEY_PINS[bits, seed]

    def test_signature_pin(self):
        key = generate_keypair(2048, seed=1)
        assert sha256_hex(key.sign(b"TSR sanitized package")) == _SIGNATURE_PIN

    @pytest.mark.parametrize("message", [b"", b"abuild-sign", bytes(range(256))])
    def test_sign_equals_textbook_rsa(self, rsa_key, message):
        em = rsa._emsa_prefix(rsa_key.size_bytes) + sha256_bytes(message)
        expected = pow(int.from_bytes(em, "big"), rsa_key.d, rsa_key.n)
        assert int.from_bytes(rsa_key.sign(message), "big") == expected

    def test_corrupted_exponentiation_caught_by_self_check(self, rsa_key,
                                                           monkeypatch):
        def faulty(base, exp, mod):
            return (powmod(base, exp, mod) ^ 1) % mod

        monkeypatch.setattr(rsa, "powmod", faulty)
        with pytest.raises(SignatureError):
            rsa_key.sign(b"fault-injected CRT half, never signed elsewhere")
