"""Native modular exponentiation through OpenSSL's libcrypto.

CPython's ``_hashlib`` already maps ``libcrypto.so.3`` into the process;
this module binds ``BN_mod_exp_mont_consttime`` from that same library via
``ctypes``, so RSA signing and Miller-Rabin run at OpenSSL speed (as Alpine's
``abuild-sign`` does) without a third-party dependency.

The BN_CTX and the four scratch BIGNUMs are allocated once per process and
reused, so :func:`powmod` is not thread-safe.
"""

from __future__ import annotations

import ctypes

# Mapped first, so the soname below resolves to the copy hashlib links.
import _hashlib  # noqa: F401

_LIBRARY = "libcrypto.so.3"
try:
    _lib = ctypes.CDLL(_LIBRARY)
except OSError as exc:
    raise ImportError(f"repro.crypto.bignum needs {_LIBRARY}: {exc}") from exc

_ptr = ctypes.c_void_p
_lib.BN_CTX_new.restype = _ptr
_lib.BN_new.restype = _ptr
_lib.BN_bin2bn.argtypes = [ctypes.c_char_p, ctypes.c_int, _ptr]
_lib.BN_bin2bn.restype = _ptr
_lib.BN_bn2binpad.argtypes = [_ptr, ctypes.c_char_p, ctypes.c_int]
_lib.BN_mod_exp_mont_consttime.argtypes = [_ptr, _ptr, _ptr, _ptr, _ptr, _ptr]

_CTX = _lib.BN_CTX_new()
_BASE, _EXP, _MOD, _RESULT = (_lib.BN_new() for _ in range(4))
if not all((_CTX, _BASE, _EXP, _MOD, _RESULT)):
    raise ImportError(f"{_LIBRARY}: BIGNUM allocation failed")


def _load(bn: int, value: int) -> None:
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if not _lib.BN_bin2bn(raw, len(raw), bn):
        raise MemoryError("BN_bin2bn failed")


def powmod(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` for a non-negative ``exp`` and an odd
    ``mod`` greater than one."""
    if mod < 3 or not mod & 1 or exp < 0:
        raise ValueError("powmod needs an odd modulus > 1 and exponent >= 0")
    _load(_BASE, base % mod)
    _load(_EXP, exp)
    _load(_MOD, mod)
    if not _lib.BN_mod_exp_mont_consttime(_RESULT, _BASE, _EXP, _MOD, _CTX, None):
        raise ArithmeticError("BN_mod_exp_mont_consttime failed")
    size = (mod.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    _lib.BN_bn2binpad(_RESULT, out, size)
    return int.from_bytes(out.raw, "big")
