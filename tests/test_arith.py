import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bpcalc.arith import INFINITY, is_prime, padic_valuation


def test_bigint_contract():
    # arbitrary-precision ints round-trip through decimal strings and agree
    # with small-word arithmetic below 2^32
    n = 3**200
    assert int(str(n)) == n
    for a in (0, 1, 2**31, 2**32 - 1):
        for b in (1, 7, 2**16):
            assert (a * b) % (2**64) == (a % 2**64) * (b % 2**64) % 2**64
            assert a + b == b + a


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    composites = [0, 1, 4, 9, 49, 91, 561, 1105]  # incl. Carmichael numbers
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_padic_valuation_examples():
    assert padic_valuation(Fraction(49, 3), 7) == 2
    assert padic_valuation(Fraction(1), 7) == 0
    # the coefficient (p-1)!/(i!j!) at i=1, j=p-1 for p=7 is a p-local unit
    p = 7
    coeff = Fraction(math.factorial(p - 1), math.factorial(1) * math.factorial(p - 1))
    assert coeff == 1
    assert padic_valuation(coeff, p) == 0


def test_padic_valuation_zero_and_errors():
    assert padic_valuation(0, 5) == INFINITY
    assert padic_valuation(Fraction(1, 25), 5) == -2
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1, 2), 6)


@given(
    st.fractions(max_denominator=10**6).filter(lambda x: x != 0),
    st.fractions(max_denominator=10**6).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_valuation_additive_and_ultrametric(x, y, p):
    assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)
    if x + y != 0:
        assert padic_valuation(x + y, p) >= min(
            padic_valuation(x, p), padic_valuation(y, p)
        )
