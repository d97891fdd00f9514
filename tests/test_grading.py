import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _basis_oracle as oracle
from bpcalc.errors import (
    AlphabetError,
    DegreeError,
    NotDivisibleError,
    ParseError,
    TruncationError,
)
from bpcalc.grading import (
    Alphabet,
    Context,
    Monomial,
    Poly,
    SparseRing,
    TermIdeal,
    _Flat,
    _pack,
    canonical_mod,
    divide_exact,
    format_poly,
    monomials_of_degree,
    monomials_up_to,
    parse_poly,
    reduce_mod,
)


@pytest.fixture(scope="module")
def ctx7():
    return Context(prime=7)


@pytest.fixture(scope="module")
def ctx5():
    return Context(prime=5)


def test_alphabet_degrees():
    a = Alphabet("v", 4, 7)
    assert [a.gen_degree(i) for i in (1, 2, 3, 4)] == [12, 96, 684, 4800]
    assert all(d > 0 and d % 2 == 0 for d in (a.gen_degree(i) for i in (1, 2, 3)))
    with pytest.raises(TruncationError):
        a.gen_degree(5)


def test_ring_arithmetic_examples(ctx7):
    v1, v2 = ctx7.v(1), ctx7.v(2)
    sq = (v1 + v2) ** 2
    assert sq == v1**2 + 2 * v1 * v2 + v2**2
    assert (v1 * 0).is_zero()
    assert (v1 * 0).terms == {}


def test_alphabet_mismatch(ctx7):
    with pytest.raises(AlphabetError):
        ctx7.v(1) + ctx7.m(1)
    with pytest.raises(AlphabetError):
        ctx7.v(1) * ctx7.m(1)


def test_binomial_coefficient_in_tensor_context(ctx7):
    # (t1 + s)^(p+1) analog: coefficient extraction on plain polys
    p = ctx7.prime
    t1 = Poly.gen(ctx7.T, 1)
    expansion = (t1 + 1) ** (p + 1)
    assert expansion.coeff((p,)) == p + 1


def _repeated_product(x, n):
    out = x._one()
    for _ in range(n):
        out = out * x
    return out


def _one_term_values(ctx):
    """One-term values of both closed-form kinds, int and Fraction
    coefficients, a constant of each; then zero values, which power by
    binary powering."""
    V = ctx.V
    return [
        Poly(V, {(2, 0, 1): -3}),
        Poly(V, {(0, 1): Fraction(-2, 5)}),
        Poly.constant(V, 7),
        Poly.constant(V, Fraction(1, 3)),
        _Flat({_pack((1, 0, 2)): 2}),
        _Flat({_pack((3,)): Fraction(-2, 3)}),
        _Flat({0: Fraction(5, 7)}),
    ], [Poly.zero(V), _Flat({})]


@pytest.mark.parametrize("n", [0, 1, 2, 57, 20000])
def test_one_term_powers_match_repeated_multiplication(ctx5, monkeypatch, n):
    one_term, zeros = _one_term_values(ctx5)
    want = [_repeated_product(x, n) for x in one_term + zeros]
    for x, w in zip(one_term + zeros, want):
        got = x**n
        assert type(got) is type(x) and got.terms == w.terms, (x, n)
        assert [type(c) for c in got.terms.values()] == [type(c) for c in w.terms.values()]
    # a one-term power is written in closed form, without one product
    def no_product(self, other):
        raise AssertionError("product in a one-term power")

    monkeypatch.setattr(SparseRing, "__mul__", no_product)
    monkeypatch.setattr(_Flat, "__mul__", no_product)
    assert [(x**n).terms for x in one_term] == [w.terms for w in want[: len(one_term)]]


def test_homogeneity(ctx7):
    v1, v2 = ctx7.v(1), ctx7.v(2)
    x = v1**8  # degree 96 at p=7
    y = v2  # degree 96
    assert (x + y).degree() == 96
    prod = (x + y) * v1
    assert prod.degree() == 96 + 12
    with pytest.raises(DegreeError):
        (v1 + v2).degree()


def test_hazewinkel_values(ctx7, ctx5):
    # the oracle's rational recursion, which the flat tables are checked
    # against in test_basis_change
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        assert oracle.v_in_m(ctx, 1) == p * ctx.m(1)
        expected2 = p * ctx.m(2) - p**p * ctx.m(1) ** (p + 1)
        assert oracle.v_in_m(ctx, 2) == expected2
        v3m = oracle.v_in_m(ctx, 3)
        assert v3m.coeff((0, 0, 1)) == p
        assert v3m.degree() == ctx.V.gen_degree(3)
        # v3 lies in the integral ring: all coefficients are integers here
        assert all(
            Fraction(c).denominator == 1 for c in v3m.terms.values()
        )
    with pytest.raises(TruncationError):
        oracle.v_in_m(ctx7, 4)


def test_m_in_v_values(ctx7):
    p = ctx7.prime
    assert oracle.m_in_v(ctx7, 1) == Fraction(1, p) * ctx7.v(1)
    expected2 = Fraction(1, p) * ctx7.v(2) + Fraction(1, p * p) * ctx7.v(1) ** (p + 1)
    assert oracle.m_in_v(ctx7, 2) == expected2
    m3 = oracle.m_in_v(ctx7, 3)
    assert all(
        Fraction(c).denominator in (1, p, p * p, p**3) for c in m3.terms.values()
    )
    # round trip through the relation table
    for i in (1, 2, 3):
        assert ctx7.to_v_basis(oracle.v_in_m(ctx7, i)) == ctx7.v(i)
        assert ctx7.to_m_basis(ctx7.to_v_basis(ctx7.m(i))) == ctx7.m(i)


def test_basis_change_examples(ctx7):
    p = ctx7.prime
    assert ctx7.to_v_basis(p * ctx7.m(1)) == ctx7.v(1)
    x = ctx7.v(2) ** p
    assert ctx7.to_v_basis(ctx7.to_m_basis(x)) == x
    # p*m2 - m1 * (v-image of v1^p expressed in m) gives v2
    combo = p * ctx7.m(2) - ctx7.to_m_basis(ctx7.v(1) ** p) * ctx7.m(1)
    assert ctx7.to_v_basis(combo) == ctx7.v(2)
    with pytest.raises(TruncationError):
        ctx7.to_m_basis(ctx7.v(4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_random_vpolys(ctx7, data):
    # random v-polynomials with indices <= 3 survive the basis round trip
    n_terms = data.draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(data.draw(st.integers(0, 3)) for _ in range(3))
        coeff = data.draw(st.integers(-50, 50))
        terms[exps] = terms.get(exps, 0) + coeff
    x = Poly(ctx7.V, terms)
    assert ctx7.to_v_basis(ctx7.to_m_basis(x)) == x


def test_is_integral(ctx7):
    p = ctx7.prime
    assert not (Fraction(1, p) * ctx7.v(1)).is_integral(p)
    assert Poly.zero(ctx7.V).is_integral(p)
    assert (3 * ctx7.v(2)).is_integral(p)


def test_reduce_mod_examples(ctx7):
    p = ctx7.prime
    v1, v2, v3 = ctx7.v(1), ctx7.v(2), ctx7.v(3)
    x = p * v2 + v1 * v3 + v2**2
    assert reduce_mod(x, ctx7.ideal_chain(1)) == v2**2
    # mixed ideal (p^2, p*v1): only terms with val>=2 or p*v1-divisible die
    ideal = ctx7.ideal((2, ()), (1, (1,)))
    y = -2 * p * v2 ** (p - 3) + p * p * v1 + p * v1 * v2
    assert reduce_mod(y, ideal) == -2 * p * v2 ** (p - 3)
    # the unit ideal kills everything
    assert reduce_mod(x, TermIdeal.unit(p)).is_zero()


def test_reduce_mod_requires_integral(ctx7):
    with pytest.raises(ValueError):
        reduce_mod(Fraction(1, 7) * ctx7.v(1), ctx7.ideal_chain(1))


def test_reduce_mod_idempotent_and_multiplicative(ctx7):
    p = ctx7.prime
    rng = random.Random(11)
    ideal = ctx7.ideal_chain(2)
    for _ in range(40):
        terms = {
            (rng.randrange(4), rng.randrange(3), rng.randrange(2)): rng.randrange(-p**3, p**3)
            for _ in range(rng.randrange(1, 5))
        }
        x = Poly(ctx7.V, terms)
        y = Poly(ctx7.V, {(rng.randrange(3), rng.randrange(2)): rng.randrange(-p**2, p**2)})
        rx = reduce_mod(x, ideal)
        assert reduce_mod(rx, ideal) == rx
        lhs = reduce_mod(x * y, ideal)
        rhs = reduce_mod(reduce_mod(x, ideal) * reduce_mod(y, ideal), ideal)
        assert lhs == rhs


def test_monomials_of_degree_brute_force(ctx7):
    # independent nested-loop count for small degrees
    alph = ctx7.V
    for d in (0, 12, 24, 96, 120):
        found = monomials_of_degree(d, alph)
        count = 0
        degs = [alph.gen_degree(i) for i in range(1, alph.size + 1)]
        for e1 in range(d // degs[0] + 1):
            for e2 in range(d // degs[1] + 1):
                for e3 in range(d // degs[2] + 1):
                    for e4 in range(d // degs[3] + 1):
                        if e1 * degs[0] + e2 * degs[1] + e3 * degs[2] + e4 * degs[3] == d:
                            count += 1
        assert len(found) == count
        assert len({m.exps for m in found}) == len(found)
        assert all(m.degree == d for m in found)
    assert monomials_of_degree(0, alph) == [Monomial(alph, ())]


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_monomials_up_to_is_the_per_degree_concatenation(prime):
    # each degree's monomials from an independent product over exponent
    # ranges, sorted by exponents and concatenated in degree order
    ctx = Context(prime=prime)
    bound = 2 * (prime**3 - 1)
    for alph in (ctx.V, ctx.T):
        degs = [alph.gen_degree(i) for i in range(1, alph.size + 1)]
        by_degree = {d: [] for d in range(0, bound + 1, 2)}
        for e in itertools.product(*(range(bound // d + 1) for d in degs)):
            d = sum(a * b for a, b in zip(e, degs))
            if d <= bound:
                by_degree[d].append(Monomial(alph, e))
        per_degree = []
        for d, monos in by_degree.items():
            monos.sort(key=lambda m: m.exps)
            assert monomials_of_degree(d, alph) == monos
            per_degree.extend(monos)
        assert monomials_up_to(bound, alph) == per_degree
        assert monomials_up_to(bound + 1, alph) == per_degree
        assert monomials_up_to(-2, alph) == monomials_of_degree(1, alph) == []


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_monomials_of_degree_is_the_degree_slice_of_monomials_up_to(prime):
    # every degree up to 2(p^3-1) + 60, odd ones, even ones off the
    # multiples of q, 0 and a negative one included; with two generators
    # the window reaches the last one
    ctx = Context(prime=prime)
    bound = 2 * (prime**3 - 1) + 60
    for alph in (ctx.V, ctx.T, ctx.M, Alphabet("v", 2, prime)):
        window = monomials_up_to(bound, alph)
        for d in range(-2, bound + 1):
            found = monomials_of_degree(d, alph)
            assert found == [m for m in window if m.degree == d]
            if d % ctx.q:
                assert found == []


def test_monomial_enumeration_indeterminacy_degrees(ctx7):
    # degree (p^2-p-3)q forces v1-exponent >= p; (p^2-2p-2)q forces >= 1
    p, q = ctx7.prime, ctx7.q
    high = monomials_of_degree((p * p - p - 3) * q, ctx7.V)
    assert high and all(m.exps[0] >= p for m in high)
    low = monomials_of_degree((p * p - 2 * p - 2) * q, ctx7.V)
    assert low and all(m.exps[0] >= 1 for m in low)


def test_divide_exact_examples(ctx7):
    p = ctx7.prime
    v1, v2 = ctx7.v(1), ctx7.v(2)
    # in pi_*/(p, v1): (-v2^p) / v2 = -v2^(p-1)
    q = divide_exact(-(v2**p), 1, (0, 1), ctx7.ideal_chain(1))
    assert q == -(v2 ** (p - 1))
    # in pi_*/(p): 2 v1^(p+1) v2^(p-3) / v1
    x = 2 * v1 ** (p + 1) * v2 ** (p - 3)
    q = divide_exact(x, 1, (1,), ctx7.ideal_chain(0))
    assert q == 2 * v1**p * v2 ** (p - 3)
    with pytest.raises(NotDivisibleError):
        divide_exact(v2, 1, (1,), ctx7.ideal_chain(0))
    with pytest.raises(ValueError):
        divide_exact(v2, 1, (0, 1), ctx7.ideal((2, ()), (1, (1,))))


def test_poly_parse_print_roundtrip(ctx7):
    cases = [
        "-2*v2^4 + 1/7*v1*v3",
        "v1",
        "-v1 + v2",
        "3",
        "0",
        "7*v1^2*v2 - 1/2*v3",
    ]
    for text in cases:
        poly = parse_poly(text, ctx7.V)
        assert parse_poly(format_poly(poly), ctx7.V) == poly
    assert parse_poly("-2*v2^4 + 1/7*v1*v3", ctx7.V).coeff((0, 4)) == -2
    with pytest.raises(ParseError):
        parse_poly("v1 + + v2", ctx7.V)
    with pytest.raises(ParseError):
        parse_poly("x1", ctx7.V)
    # coef := int | int '/' int; nothing else that Fraction() would accept
    for text in ("0.5*v1", "1e3*v1", "1_0*v1", "2/0*v1", "(3)*v1", "3/-4*v1"):
        with pytest.raises(ParseError):
            parse_poly(text, ctx7.V)
    with pytest.raises(TruncationError):
        parse_poly("v9", ctx7.V)


def test_parse_leading_plus_sign(ctx7):
    v1, v2 = ctx7.v(1), ctx7.v(2)
    assert parse_poly("+v1", ctx7.V) == v1
    assert parse_poly("+2*v1 - v2", ctx7.V) == 2 * v1 - v2


def test_canonical_mod_inverts_a_p_local_denominator(ctx5):
    # 1/2 = 13 = -12 mod 25, from pow(2, -1, 25)
    v1 = ctx5.v(1)
    assert canonical_mod(Fraction(1, 2) * v1, ctx5.ideal((2, ()))) == -12 * v1


def test_parse_normal_form_bijection(ctx7):
    rng = random.Random(5)
    for _ in range(50):
        terms = {
            (rng.randrange(4), rng.randrange(3)): Fraction(
                rng.randrange(-20, 20), rng.randrange(1, 9)
            )
            for _ in range(rng.randrange(1, 5))
        }
        poly = Poly(ctx7.V, terms)
        assert parse_poly(format_poly(poly), ctx7.V) == poly


def test_ideal_printing(ctx7):
    assert str(ctx7.ideal_chain(1)) == "(p, v1)"
    assert str(ctx7.ideal((2, ()), (1, (1,)))) == "(p^2, p*v1)"
    assert str(TermIdeal.zero(7)) == "(0)"
