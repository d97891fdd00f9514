"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is exact (integer/rational equality or exact congruence mod a
term ideal); there are no numeric tolerances anywhere.  Stated runtime
budgets are asserted.  Run with ``pytest -s tests/test_acceptance.py`` to
see one pass/fail line per criterion.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from _seqgen import random_short_exact
from bpcalc import abloc, catfrac, hopf, opcalc
from bpcalc.grading import Context, Poly, monomials_up_to, reduce_mod


def _line(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def contexts():
    return {5: Context(prime=5), 7: Context(prime=7)}


def test_criterion_1_commutator_relations(contexts):
    """Commutator relations at p in {5, 7}, paired against every t-monomial
    of degree <= (2p+4)q; residuals exactly zero; < 60 s per prime."""
    detail = []
    for p, ctx in contexts.items():
        assert hopf.pairing_window_q(p) == 2 * p + 4
        t0 = time.perf_counter()
        report = hopf.verify_lemma_7_1(ctx)
        elapsed = time.perf_counter() - t0
        relation_records = [r for r in report.records if r.id.startswith("relation[")]
        commutators = relation_records[:3]
        ok = all(r.status for r in commutators) and elapsed < 60
        detail.append(f"p={p}: 3 relations exact on (2p+4)q window, {elapsed:.1f}s")
        if not ok:
            _line(1, False, f"p={p} failed or exceeded 60s ({elapsed:.1f}s)")
    _line(1, True, "; ".join(detail))


def test_criterion_2_derived_relations_and_complex(contexts):
    """Derived triple relations exact on the same window; check_complex
    certifies both composites for the corrected matrix and demonstrably
    fails for the printed one (both outcomes asserted)."""
    detail = []
    for p, ctx in contexts.items():
        report = hopf.verify_lemma_7_1(ctx)
        triples = [r for r in report.records if r.id.startswith("relation[")][3:]
        assert len(triples) == 2 and all(r.status for r in triples)
        d0, d1, d2 = opcalc.d_matrices(ctx)
        good = opcalc.check_complex(ctx, [d0, d1, d2])
        assert good.passed, f"corrected complex fails at p={p}"
        bad = opcalc.check_complex(ctx, [d0, opcalc.d1_misprint(ctx), d2])
        assert not bad.passed, f"printed variant unexpectedly passes at p={p}"
        assert all(r.witness for r in bad.failures())
        detail.append(f"p={p}: d1d0 = d2d1 = 0 corrected, printed fails with witness")
    _line(2, True, "; ".join(detail))


def test_criterion_3_action_values(contexts):
    """Exact action values and congruences on v1, v2, v3 at p in {5, 7}."""
    for p, ctx in contexts.items():
        v1, v2, v3 = ctx.v(1), ctx.v(2), ctx.v(3)
        assert hopf.r_action(ctx, (1,), v1) == p + Poly.zero(ctx.V)
        assert hopf.r_action(ctx, (1,), v2) == -(p + 1) * v1**p
        assert hopf.r_action(ctx, (0, 1), v2) == p + Poly.zero(ctx.V)
        got = hopf.r_action(ctx, (p,), v2)
        assert reduce_mod(got - v1, ctx.ideal((p - 1, (1,)))).is_zero()
        for i in range(2, p):
            got = hopf.r_action(ctx, (i,), v2)
            assert reduce_mod(got, ctx.ideal((i, ()))).is_zero()
        chain1 = ctx.ideal_chain(1)
        assert reduce_mod(
            hopf.r_action(ctx, (1,), v3) + v2**p, chain1
        ).is_zero()
        assert reduce_mod(hopf.r_action(ctx, (p,), v3), chain1).is_zero()
    _line(3, True, "R[1]v1, R[1]v2, R[0,1]v2 exact; R[p]v2, R[i]v2, "
          "R[1]v3, R[p]v3 congruences exact at p = 5, 7")


def test_criterion_4_gamma1_pipeline(contexts):
    """Stage values at p = 7: [-v2^6; 0]g1, [2v1^7v2^4; 2v1v2^4]g0 mod p,
    final -2v2^4 l mod (p, v1); indeterminacy scanned exhaustively in
    degrees 39q and 33q; < 5 min."""
    ctx = contexts[7]
    t0 = time.perf_counter()
    report = opcalc.gamma1_pipeline(ctx)
    elapsed = time.perf_counter() - t0
    by_id = {r.id: r for r in report.records}
    assert by_id["lemma7.5.value"].computed == "[-v2^6*g1; 0]"
    assert by_id["lemma7.7.value"].computed == "[2*v1^7*v2^4*g0; 2*v1*v2^4*g0]"
    assert by_id["thm7.2.final"].computed == "-2*v2^4*l"
    q = ctx.q
    assert by_id[f"thm7.2.indeterminacy[deg={39*q}]"].status
    assert by_id[f"thm7.2.indeterminacy[deg={33*q}]"].status
    assert report.passed and elapsed < 300
    _line(4, True, f"stage values and indeterminacy exact at p=7, {elapsed:.1f}s")


def test_criterion_5_betap_pipeline(contexts):
    """R[p^2] h = v1^(p-1) g0 in pi/(p) for p in {5, 7}; < 2 min."""
    detail = []
    t0 = time.perf_counter()
    for p, ctx in contexts.items():
        report = opcalc.betap_pipeline(ctx)
        assert report.passed
        final = {r.id: r for r in report.records}["thm7.10.value"]
        assert final.computed == f"v1^{p-1}*g0"
        detail.append(f"p={p}: v1^{p-1}*g0")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _line(5, True, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_6_ext1_invariant(contexts):
    """For all admissible r (p^2 < r < p^2 + p), p in {5, 7}: the top
    action vanishes mod p^p, the coboundary congruence table holds, and
    the integrality system forces integral c_ij and p-integral c."""
    detail = []
    for p, ctx in contexts.items():
        for r in range(p * p + 1, p * p + p):
            report = opcalc.ext1_invariant(ctx, r)
            assert report.passed, (p, r, [x.id for x in report.failures()])
        detail.append(f"p={p}: r in {{{p*p+1}..{p*p+p-1}}}")
    _line(6, True, "; ".join(detail))


def test_criterion_7_structural(contexts):
    """Hazewinkel round trip exact; psi t_k integral in the v-basis for
    k <= 3; Cartan action equals right-unit coefficients on every
    v-monomial of degree <= 2(p^3 - 1)."""
    detail = []
    for p, ctx in contexts.items():
        report = hopf.verify_structural(ctx)
        assert report.passed, [r.id for r in report.failures()]
        sweep = {r.id: r for r in report.records}["cartan-right-unit-coherence"]
        detail.append(f"p={p}: {sweep.computed}")
    _line(7, True, "; ".join(detail))


def test_criterion_8_calculus_of_fractions():
    """On the regression library (>= 6 categories with marked classes) the
    localized hom-sets equal the zig-zag oracle exactly; the monad checker
    passes the library monads and rejects the two seeded mutants."""
    entries = catfrac.library()
    assert len(entries) >= 6
    compared = 0
    for name, C, S in entries:
        L, Q, _ = catfrac.localize(C, S)
        for x in C.objects:
            for y in C.objects:
                oracle = catfrac.zigzag_oracle(C, S, x, y)
                assert len(oracle) == len(L.hom(x, y)), (name, x, y)
                compared += 1
    monads = catfrac.library_monads()
    assert len(monads) >= 2
    for name, C, M in monads:
        assert catfrac.check_monad(C, M).passed, name
        assert catfrac.verify_universal_props(C, M).passed, name
    mutants = catfrac.mutant_monads()
    assert len(mutants) == 2
    for name, C, M in mutants:
        assert not catfrac.check_monad(C, M).passed, name
    _line(
        8,
        True,
        f"{len(entries)} categories, {compared} hom-sets oracle-checked; "
        f"{len(monads)} monads pass, 2 mutants rejected",
    )


def _all_groups_of_order(n):
    def partitions(k, maxpart=None):
        if k == 0:
            yield ()
            return
        maxpart = maxpart or k
        for first in range(min(k, maxpart), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    fac = {}
    m, d = n, 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    per_prime = [[(p, part) for part in partitions(e)] for p, e in fac.items()]
    for combo in iproduct(*per_prime) if per_prime else [()]:
        orders = []
        for p, part in combo:
            orders.extend(p**k for k in part)
        yield tuple(orders)


def test_criterion_9_abelian_localization():
    """localize == literal fraction construction across the sweep (orders
    up to 10^4); the arithmetic square for Z/12 at {2}|odd gives corners
    Z/4, Z/3, 0 with pullback Z/12; exactness preserved on 100 randomized
    short exact sequences."""
    sets = [
        abloc.InvertedSet({2}),
        abloc.InvertedSet({3}),
        abloc.InvertedSet({2, 5}),
        abloc.InvertedSet({2}, complement=True),
        abloc.InvertedSet(rationalize=True),
    ]
    compared = 0
    for n in range(1, 201):  # exhaustive over every isomorphism type
        for orders in _all_groups_of_order(n):
            M = abloc.FGAbelianGroup(0, orders)
            for S in sets:
                assert abloc.fraction_oracle(orders, S) == abloc.localize(M, S).group()
                compared += 1
    rng = random.Random(104729)
    large = [(8192,), (16, 625), (9999,), (32, 243), (9973,), (7, 11, 13, 8)]
    for _ in range(24):
        orders = []
        while math.prod(orders or [1]) < 500:
            p = rng.choice([2, 3, 5, 7, 11])
            orders.append(p ** rng.randrange(1, 4))
        if math.prod(orders) <= 10**4:
            large.append(tuple(orders))
    for orders in large:
        assert math.prod(orders) <= 10**4
        M = abloc.FGAbelianGroup(0, orders)
        for S in sets[:3]:
            assert abloc.fraction_oracle(orders, S) == abloc.localize(M, S).group()
            compared += 1

    square = abloc.arithmetic_square(abloc.parse_group("Z/12"), {2})
    assert square.passed
    corners = {r.id: r for r in square.records}["corners"].computed
    assert "Z/4" in corners and "Z/3" in corners and "0" in corners

    count = 0
    while count < 100:
        groups, maps = random_short_exact(rng)
        if math.prod(groups[1]) > 4000:
            continue
        S = rng.choice(sets)
        rep = abloc.exactness_check(groups, maps, S)
        assert rep.passed, (groups, str(S))
        count += 1
    _line(
        9,
        True,
        f"{compared} oracle comparisons (orders up to 10^4); square corners "
        "Z/4 | Z/3 | 0 with pullback Z/12; 100 random sequences exact",
    )
