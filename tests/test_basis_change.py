"""The v <-> m basis change against an independent sympy expansion and
the tuple-keyed oracle of ``_basis_oracle``, and the flat basis changes
of ``grading`` under both.

The oracle expands the Hazewinkel relations (Ravenel, *Complex Cobordism*,
ch. 4) with sympy rationals:

    v1 = p*m1,  v2 = p*m2 - v1^p*m1,  v3 = p*m3 - v1^(p^2)*m2 - v2^p*m1.
"""

import random
from fractions import Fraction

import pytest

import _basis_oracle as oracle
from bpcalc import hopf
from bpcalc.cli import EXIT_TRUNCATION, Config, main, run_verify
from bpcalc.errors import AlphabetError, ExponentOverflowError, TruncationError
from bpcalc.grading import (
    _T_SHIFT,
    _V_MASK,
    Alphabet,
    Context,
    Poly,
    _flat_image,
    _m_in_v_scaled,
    _m_to_v_into,
    _m_to_v_scaled,
    _pack,
    _trim,
    _unpack,
    _v_in_m_flat,
    monomials_up_to,
)

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


@pytest.mark.parametrize("prime", [3, 5, 7, 11, 13])
def test_hazewinkel_tables_match_the_rational_recursion_and_sympy(prime):
    # the generator tables run the recursions over Z; the oracle runs them
    # over Q in Poly arithmetic, and sympy expands the relations on its own
    ctx, octx = Context(prime=prime), Context(prime=prime)
    gens, v_in_m = sympy_v_in_m(prime)
    for i in (1, 2, 3):
        unit = (0,) * (i - 1) + (1,)
        table = _v_in_m_flat(ctx, i).terms
        assert all(type(c) is int and c for c in table.values()), i
        got = {_unpack(k): c for k, c in table.items()}
        assert got == oracle.v_in_m(octx, i).terms == oracle_terms(unit, gens, v_in_m), i
        table = _m_in_v_scaled(ctx, i).terms
        assert all(type(c) is int and c for c in table.values()), i
        got = {_unpack(k): c for k, c in table.items()}
        scale = prime**i
        assert got == {e: c * scale for e, c in oracle.m_in_v(octx, i).terms.items()}, i
        # sympy's v1..v3 put into p^i m_i's v-image give p^i m_i back
        image = sp.Poly(0, *gens, domain="QQ")
        for exps, c in got.items():
            term = sp.Poly(c, *gens, domain="QQ")
            for v, e in zip(v_in_m, exps):
                term *= v**e
            image += term
        assert image == sp.Poly(scale * gens[i - 1], *gens, domain="QQ"), i


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
    assert warm.memo["_v_in_m_flat"] and warm.memo["_m_to_v_scaled"]
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
    ctx.to_v_basis(ctx.m(2, 3))
    assert set(memo["_m_to_v_scaled"]) == {_pack((0, 3))}
    # the recursion for p^2 m2 reads p m1: the lower generator fills first
    assert list(memo["_m_in_v_scaled"]) == [(1,), (2,)]
    assert set(memo["_m_in_v_scaled_pow"]) == {(2, 3)}
    assert memo["_v_in_m_flat"] == {} and memo["_v_in_m_flat_pow"] == {}
    ctx.to_m_basis(ctx.v(1) * ctx.v(3))
    # v1 for the image's first factor, then v3 over v2 and v1; the
    # recursion's powers are not memoized
    assert list(memo["_v_in_m_flat"]) == [(1,), (2,), (3,)]
    assert set(memo["_v_in_m_flat_pow"]) == {(1, 1), (3, 1)}
    assert not any(Context(prime=5).memo.values())


def test_results_never_alias_memo_entries():
    ctx = Context(prime=7)
    x = ctx.m(1, 2) * ctx.m(2)
    first, second = ctx.to_v_basis(x), ctx.to_v_basis(x)
    assert first == second
    assert first.terms is not second.terms
    tables = [entry for _, entry in ctx.memo["_m_to_v_scaled"].values()]
    tables += [entry.terms for entry in ctx.memo["_m_in_v_scaled_pow"].values()]
    assert all(first.terms is not entry for entry in tables)
    # mutating a result leaves later conversions intact
    first.terms.clear()
    assert ctx.to_v_basis(x) == second
    y = ctx.v(3)
    a, b = ctx.to_m_basis(y), ctx.to_m_basis(y)
    assert a == b and a.terms is not b.terms
    tables = [entry.terms for entry in ctx.memo["_v_in_m_flat"].values()]
    tables += [entry.terms for entry in ctx.memo["_v_in_m_flat_pow"].values()]
    assert all(a.terms is not entry for entry in tables)
    a.terms.clear()
    assert ctx.to_m_basis(y) == b == oracle.to_m(Context(prime=7), y)


def test_truncation_errors_on_the_memoized_path(capsys):
    ctx = Context(prime=5)
    with pytest.raises(TruncationError, match="no substitution image for m4"):
        ctx.to_v_basis(ctx.m(4))
    with pytest.raises(TruncationError, match="no substitution image for v4"):
        ctx.to_m_basis(ctx.v(1) * ctx.v(4))
    # both fail before any key is packed: m4 would land in the t-fields
    assert not any(ctx.memo.values())
    assert ctx.to_v_basis(ctx.prime * ctx.m(1)) == ctx.v(1)
    assert main(["eval", "R[1]", "v4", "--prime", "5"]) == EXIT_TRUNCATION
    err = capsys.readouterr().err
    assert err.startswith("truncation error:")


def test_field_overflow_raises_before_any_memo_entry():
    # at p = 5, deg(v1^e)/q = e: 2^16 is one past the 16-bit key field, and
    # m1^(2^16) packed would read as m2
    ctx = Context(prime=5)
    for convert, x in ((ctx.to_m_basis, ctx.v(1)), (ctx.to_v_basis, ctx.m(1))):
        with pytest.raises(ExponentOverflowError):
            convert(x + x ** (1 << 16))
        assert not any(ctx.memo.values())


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
    # the flat basis changes against the tuple-keyed oracle over its own
    # rational Hazewinkel recursions: v^a in the m-basis (over
    # _v_in_m_flat), and p^s * m^a in the v-basis (over _m_in_v_scaled,
    # s = a1 + 2 a2 + 3 a3), all with int coefficients
    ctx, flat = Context(prime=prime), Context(prime=prime)
    bound = 2 * (prime**3 - 1)
    for mono in monomials_up_to(bound, ctx.V):
        x = Poly(flat.V, {mono.exps: 1})
        image = _flat_image(flat, x, _v_in_m_flat, "test").terms
        expected = oracle.to_m(ctx, Poly(ctx.V, {mono.exps: 1})).terms
        assert {_unpack(k): c for k, c in image.items()} == expected
        assert all(type(c) is int for c in image.values()), str(mono)
    for mono in monomials_up_to(bound, ctx.M):
        s, pairs = _m_to_v_scaled(flat, _pack(mono.exps))
        assert s == sum(i * e for i, e in enumerate(mono.exps, start=1))
        oracle_image = oracle.to_v(ctx, Poly(ctx.M, {mono.exps: 1})).terms
        expected = {e: c * prime**s for e, c in oracle_image.items()}
        assert {_unpack(k): c for k, c in pairs} == expected
        assert len(dict(pairs)) == len(pairs), str(mono)
        assert all(type(c) is int and c for _, c in pairs), str(mono)
    # the Cartan side fills the same flat tables
    cold = Context(prime=prime)
    hopf.r_action(cold, (1,), cold.v(1) ** prime * cold.v(2) + cold.v(3))
    assert cold.memo["_v_in_m_flat"] and cold.memo["_m_in_v_scaled"]


def _random_m_table(rng, p, K, size, deep):
    """{m-key + J << _T_SHIFT: coefficient}: size random m-monomials of
    degree <= Kq (deep: m2's and m3's exponents at most 2 and m1's within
    3 of the rest of K) under random indices J, with int and Fraction
    coefficients."""
    d2, d3 = p + 1, p * p + p + 1  # deg(m_i)/q
    table = {}
    while len(table) < size:
        cap = 2 if deep else K
        a3 = rng.randrange(min(cap, K // d3) + 1)
        a2 = rng.randrange(min(cap, (K - a3 * d3) // d2) + 1)
        rest = K - a3 * d3 - a2 * d2
        a1 = rest - rng.randrange(4) if deep else rng.randrange(rest + 1)
        J = tuple(rng.randrange(3) for _ in range(3))
        c = rng.choice([1, -2, 3, Fraction(1, p), Fraction(-5, 2)])
        table[_pack((a1, a2, a3)) + _pack(J, _T_SHIFT)] = c
    return table


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_m_to_v_into_is_p_to_the_k_times_the_oracle_per_index(prime):
    # random packed (m-key + J) tables, at a window-sized K and at
    # K = 20000: the undivided change adds, per J, p^K times the oracle's
    # m -> v change of that J's m-polynomial; into keeps what it held, so
    # seeded with the negated result it reads 0 everywhere
    rng, ctx, octx = random.Random(prime), Context(prime=prime), Context(prime=prime)
    for K, size, deep in ((prime**2 + prime + 1, 60, False), (20000, 8, True)):
        table = _random_m_table(rng, prime, K, size, deep)
        out = _m_to_v_into(ctx, table, K, {})
        by_index = {}
        for k, c in table.items():
            by_index.setdefault(k >> _T_SHIFT, {})[_unpack(k & _V_MASK)] = c
        expected = {}
        for jk, terms in by_index.items():
            for e, c in oracle.to_v(octx, Poly(octx.M, terms)).terms.items():
                expected[_pack(e) + (jk << _T_SHIFT)] = c * prime**K
        assert expected and {k: c for k, c in out.items() if c} == expected, K
        seeded = _m_to_v_into(ctx, table, K, {k: -c for k, c in out.items()})
        assert set(seeded) == set(out) and not any(seeded.values()), K


COEFFS = [1, 2, -3, Fraction(1, 2), Fraction(-3, 2)]


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_maps_match_oracle_on_window(prime):
    # to_m_basis and to_v_basis against the tuple-keyed oracle on every
    # monomial of degree <= 2(p^3 - 1), with int and Fraction coefficients
    # (1, 2, -3 over 1, 2, p and p^2), one term and summed over the window
    ctx, octx = Context(prime=prime), Context(prime=prime)
    coeffs = COEFFS + [Fraction(c, prime**k) for c in (1, 2, -3) for k in (1, 2)]
    bound = 2 * (prime**3 - 1)
    for source, convert, expect in (
        ("V", ctx.to_m_basis, oracle.to_m),
        ("M", ctx.to_v_basis, oracle.to_v),
    ):
        window = monomials_up_to(bound, getattr(ctx, source))
        total = {}
        for n, mono in enumerate(window):
            c = coeffs[n % len(coeffs)]
            total[mono.exps] = c
            for d in (1, c):
                x = Poly(getattr(ctx, source), {mono.exps: d})
                y = Poly(getattr(octx, source), {mono.exps: d})
                assert convert(x) == expect(octx, y), (str(mono), d)
        x, y = Poly(getattr(ctx, source), total), Poly(getattr(octx, source), total)
        assert convert(x) == expect(octx, y)


def test_verify_all_fills_no_tuple_keyed_table(monkeypatch):
    # the round-trip record reads to_m_basis/to_v_basis, which run on the
    # flat tables: no tuple-keyed image or power table is left in the memo
    built, real = [], Config.context

    def context(self):
        built.append(real(self))
        return built[-1]

    monkeypatch.setattr(Config, "context", context)
    assert run_verify("all", Config(prime=7, timing=False)).passed
    (ctx,) = built
    forbidden = {"v_to_m", "m_to_v", "v_in_m", "m_in_v", "v_in_m_pow", "m_in_v_pow"}
    assert not forbidden & set(ctx.memo)
    assert ctx.memo["_v_in_m_flat"] and ctx.memo["_m_to_v_scaled"]
