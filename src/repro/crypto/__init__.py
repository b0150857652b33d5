"""From-scratch cryptography used across the reproduction.

Implements exactly what TSR and its substrates need, with no third-party
crypto package:

* SHA-256 digests (stdlib ``hashlib`` as the primitive),
* modular exponentiation from the OpenSSL ``libcrypto`` that ``hashlib``
  already loads, bound through ``ctypes`` (:mod:`repro.crypto.bignum`),
* RSA key generation (Miller-Rabin), signing and verification using
  PKCS#1 v1.5 with SHA-256 — matching Alpine's 256-byte ``.rsa.pub``
  signatures the paper relies on,
* PEM-style serialization so policies can embed keys as in Listing 1,
* a minimal certificate chain for mirror endpoint authentication.
"""

from repro.crypto.hashes import sha256_hex, sha256_bytes, hmac_sha256
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.crypto.pem import pem_encode, pem_decode
from repro.crypto.certs import Certificate, CertificateAuthority, verify_chain

__all__ = [
    "sha256_hex",
    "sha256_bytes",
    "hmac_sha256",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "pem_encode",
    "pem_decode",
    "Certificate",
    "CertificateAuthority",
    "verify_chain",
]
