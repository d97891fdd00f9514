"""Exact arithmetic kernel: primality and p-adic valuations.

Integers are Python's arbitrary-precision ``int``; rationals are
``fractions.Fraction`` (always stored reduced, denominator positive).
Everything here is a pure value; no shared mutable state.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Valuation assigned to zero.
INFINITY = math.inf

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid for all 64-bit inputs and beyond
    with the fixed base set; falls back to trial division for huge inputs)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= 3317044064679887385961981:  # MR base set certified below this
        i = 41
        while i * i <= n:
            if n % i == 0:
                return False
            i += 2
    return True


def padic_valuation(x, p: int):
    """ord_p of an int or Fraction: ord_p(num) - ord_p(den).

    Returns ``INFINITY`` for 0.  Rejects non-prime p.  Additive under
    multiplication; satisfies val(x+y) >= min(val(x), val(y)).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    else:
        num, den = int(x), 1
    if num == 0:
        return INFINITY
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v
