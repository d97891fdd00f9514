"""The memoized v <-> m basis change against an independent sympy expansion,
and the flat basis changes of ``hopf``'s Cartan side against it.

The oracle expands the Hazewinkel relations (Ravenel, *Complex Cobordism*,
ch. 4) with sympy rationals:

    v1 = p*m1,  v2 = p*m2 - v1^p*m1,  v3 = p*m3 - v1^(p^2)*m2 - v2^p*m1.
"""

from fractions import Fraction

import pytest

from bpcalc import hopf
from bpcalc.cli import EXIT_TRUNCATION, main
from bpcalc.errors import AlphabetError, TruncationError
from bpcalc.grading import Alphabet, Context, Poly, _trim, monomials_up_to

sp = pytest.importorskip("sympy")


def sympy_v_in_m(p):
    m1, m2, m3 = gens = sp.symbols("m1 m2 m3")
    v1 = sp.Poly(p * m1, *gens, domain="QQ")
    v2 = sp.Poly(p * m2, *gens, domain="QQ") - v1**p * sp.Poly(m1, *gens)
    v3 = (
        sp.Poly(p * m3, *gens, domain="QQ")
        - v1 ** (p * p) * sp.Poly(m2, *gens)
        - v2**p * sp.Poly(m1, *gens)
    )
    return gens, (v1, v2, v3)


def oracle_terms(exps, gens, v_in_m):
    expr = sp.Poly(1, *gens, domain="QQ")
    for v, e in zip(v_in_m, exps):
        expr *= v**e
    out = {}
    for mono, c in expr.terms():
        c = sp.Rational(c)
        out[_trim(mono)] = Fraction(int(c.p), int(c.q))
    return out


@pytest.mark.parametrize("prime", [5, 7])
def test_to_m_basis_matches_sympy_on_window(prime):
    ctx = Context(prime=prime)
    gens, v_in_m = sympy_v_in_m(prime)
    window = monomials_up_to(2 * (prime**3 - 1), ctx.V)
    assert len(window) > 100
    for mono in window:
        x = Poly(ctx.V, {mono.exps: 1})
        xm = ctx.to_m_basis(x)
        assert xm.alphabet == ctx.M
        assert xm.terms == oracle_terms(mono.exps, gens, v_in_m), str(mono)
        assert ctx.to_v_basis(xm) == x, str(mono)


@pytest.mark.parametrize("prime", [5, 7])
def test_warm_context_agrees_with_fresh(prime):
    warm = Context(prime=prime)
    window = monomials_up_to(2 * (prime**3 - 1), warm.V)
    polys = [Poly(warm.V, {mono.exps: 1}) for mono in window]
    images = [warm.to_m_basis(x) for x in polys]
    back = [warm.to_v_basis(y) for y in images]
    assert warm.memo["v_to_m"] and warm.memo["m_to_v"]
    for x, y, z in list(zip(polys, images, back))[::7]:
        fresh = Context(prime=prime)
        assert warm.to_m_basis(x) == fresh.to_m_basis(x) == y
        assert Context(prime=prime).to_v_basis(y) == z == x
    # a multi-term input on a warm context equals the sum of its parts
    combo = polys[3] * 2 + polys[40] * Fraction(-3, prime) + polys[-1]
    expected = images[3] * 2 + images[40] * Fraction(-3, prime) + images[-1]
    assert warm.to_m_basis(combo) == expected
    assert Context(prime=prime).to_m_basis(combo) == expected


def test_tables_fill_lazily_and_are_per_context():
    ctx = Context(prime=5)
    memo = ctx.memo
    assert memo["m_to_v"] == {} and memo["v_to_m"] == {} and memo["m_in_v_pow"] == {}
    ctx.to_v_basis(ctx.m(2, 3))
    assert set(memo["m_to_v"]) == {((0, 3),)} and memo["v_to_m"] == {}
    assert Context(prime=5).memo["m_to_v"] == {}


def test_results_never_alias_memo_entries():
    ctx = Context(prime=7)
    x = ctx.m(1, 2) * ctx.m(2)
    first, second = ctx.to_v_basis(x), ctx.to_v_basis(x)
    assert first == second
    assert first.terms is not second.terms
    assert all(first.terms is not entry for entry in ctx.memo["m_to_v"].values())
    # mutating a result leaves later conversions intact
    first.terms.clear()
    assert ctx.to_v_basis(x) == second
    y = ctx.v(3)
    a, b = ctx.to_m_basis(y), ctx.to_m_basis(y)
    assert a == b and a.terms is not b.terms
    assert all(a.terms is not entry for entry in ctx.memo["v_to_m"].values())


def test_truncation_errors_on_the_memoized_path(capsys):
    ctx = Context(prime=5)
    with pytest.raises(TruncationError):
        ctx.to_v_basis(ctx.m(4))
    with pytest.raises(TruncationError):
        ctx.to_m_basis(ctx.v(1) * ctx.v(4))
    # a failed monomial is not memoized; its neighbours still convert
    assert ((0, 0, 0, 1),) not in ctx.memo["m_to_v"]
    assert ctx.to_v_basis(ctx.prime * ctx.m(1)) == ctx.v(1)
    assert main(["eval", "R[1]", "v4", "--prime", "5"]) == EXIT_TRUNCATION
    err = capsys.readouterr().err
    assert err.startswith("truncation error:")


def test_alphabet_errors_on_the_memoized_path():
    ctx = Context(prime=5)
    t = Poly.gen(ctx.T, 1)
    with pytest.raises(AlphabetError):
        ctx.to_v_basis(t)
    with pytest.raises(AlphabetError):
        ctx.to_m_basis(t)


def test_equal_but_distinct_alphabets_mix():
    ctx = Context(prime=7)
    twin = Alphabet("v", ctx.V.size, ctx.V.prime)
    assert twin == ctx.V and twin is not ctx.V
    x = Poly.gen(twin, 1)
    assert x + ctx.v(2) == ctx.v(1) + ctx.v(2)
    assert x * ctx.v(2) == ctx.v(1) * ctx.v(2)
    with pytest.raises(AlphabetError):
        x + Poly.gen(Alphabet("v", ctx.V.size, 5), 1)
    with pytest.raises(AlphabetError):
        x * ctx.m(1)


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_flat_images_match_context_maps(prime):
    # the Cartan side's flat basis changes against the tuple-keyed maps:
    # v^a in the m-basis (over _v_in_m_flat), and p^s * m^a in the v-basis
    # (over _m_in_v_scaled, s = a1 + 2 a2 + 3 a3), all with int coefficients
    ctx, flat = Context(prime=prime), Context(prime=prime)
    bound = 2 * (prime**3 - 1)
    for mono in monomials_up_to(bound, ctx.V):
        x = Poly(flat.V, {mono.exps: 1})
        image = hopf._flat_image(flat, x, hopf._v_in_m_flat, "test").terms
        assert {hopf._unpack(k): c for k, c in image.items()} == ctx.v_to_m(mono.exps)
        assert all(type(c) is int for c in image.values()), str(mono)
    for mono in monomials_up_to(bound, ctx.M):
        s, image = hopf._m_to_v_scaled(flat, hopf._pack(mono.exps))
        assert s == sum(i * e for i, e in enumerate(mono.exps, start=1))
        expected = {e: c * prime**s for e, c in ctx.m_to_v(mono.exps).items()}
        assert {hopf._unpack(k): c for k, c in image.items()} == expected
        assert all(type(c) is int for c in image.values()), str(mono)
    # the Cartan side reads neither tuple-keyed map
    cold = Context(prime=prime)
    hopf.r_action(cold, (1,), cold.v(1) ** prime * cold.v(2) + cold.v(3))
    assert cold.memo["v_to_m"] == {} and cold.memo["m_to_v"] == {}
    assert cold.memo["_v_in_m_flat"] and cold.memo["_m_in_v_scaled"]
