"""Arithmetic in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.

Shared by the AES implementation, the DFA equations in :mod:`repro.fia`,
and the leakage-model hypotheses in :mod:`repro.sca`.
"""

from __future__ import annotations

AES_POLY = 0x11B


def xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8)."""
    a <<= 1
    if a & 0x100:
        a ^= AES_POLY
    return a & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Carry-less multiply modulo the AES polynomial."""
    result = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            result ^= a
        a = xtime(a)
        b >>= 1
    return result


def gf_pow(a: int, e: int) -> int:
    """Exponentiation in GF(2^8) by square-and-multiply."""
    result = 1
    base = a & 0xFF
    while e:
        if e & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        e >>= 1
    return result


def gf_inv(a: int) -> int:
    """Multiplicative inverse (0 maps to 0, as in the AES S-box)."""
    if a == 0:
        return 0
    return gf_pow(a, 254)
