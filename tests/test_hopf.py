import contextlib
import math
import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bpcalc import hopf
from bpcalc.arith import padic_valuation
from bpcalc.errors import (
    AlphabetError,
    DegreeError,
    ExponentOverflowError,
    TruncationError,
)
from bpcalc.grading import (
    Context,
    Poly,
    _trim,
    add_exps,
    add_term,
    monomials_up_to,
    reduce_mod,
)
from bpcalc.hopf import (
    OperationCombo,
    OperationExpr,
    TensorPoly,
    TPoly,
    coassociativity_check,
    compose_pair,
    eta_r,
    eta_r_m,
    pair,
    pair_word,
    product_in_basis,
    psi,
    psi_monomial,
    psi_t,
    r_action,
    r_action_table,
    verify_lemma_7_1,
)


@pytest.fixture(scope="module")
def ctx7():
    return Context(prime=7)


@pytest.fixture(scope="module")
def ctx5():
    return Context(prime=5)


def test_psi_t1_corrected_by_grading(ctx7):
    # t1 (x) 1 + 1 (x) t1; the other diagonal shape is impossible by degree
    pt1 = psi_t(ctx7, 1)
    assert pt1.coeff((1,), ()) == 1
    assert pt1.coeff((), (1,)) == 1
    assert len(pt1.terms) == 2


def test_psi_t2_formula(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        pt2 = psi_t(ctx, 2)
        assert pt2.coeff((0, 1), ()) == 1
        assert pt2.coeff((), (0, 1)) == 1
        assert pt2.coeff((1,), (p,)) == 1
        for i in range(1, p):
            j = p - i
            expected = -Fraction(
                math.factorial(p - 1), math.factorial(i) * math.factorial(j)
            )
            assert pt2.coeff((i,), (j,)) == expected * ctx.v(1)
        assert len(pt2.terms) == 3 + (p - 1)


def test_psi_t3_key_coefficient(ctx5, ctx7):
    # the coefficient of t1^p (x) t1^(p^2-p) is -v2 modulo p^3 * m2
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        c = psi_t(ctx, 3).coeff((p,), (p * p - p,))
        diff = ctx.to_m_basis(c) + ctx.to_m_basis(ctx.v(2))
        assert set(diff.terms) <= {(0, 1)}
        assert all(
            padic_valuation(Fraction(v), p) >= 3 for v in diff.terms.values()
        )


def test_psi_t4_at_small_prime():
    # the recursion extends to t4 within the default truncation; the small
    # prime keeps the expansion tractable
    ctx = Context(prime=3)
    pt4 = psi_t(ctx, 4)
    assert pt4.coeff((0, 0, 0, 1), ()) == 1
    assert pt4.coeff((), (0, 0, 0, 1)) == 1
    assert coassociativity_check(ctx, 3)


@contextlib.contextmanager
def _budget(seconds):
    """Fail a guard test in time if the guard is missing: the build it
    stops would otherwise run far past the budget."""

    def too_slow(signum, frame):
        raise TimeoutError(f"no guard stopped the build within {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_psi_truncation_error(ctx7):
    with pytest.raises(TruncationError):
        psi_t(ctx7, 5)
    # psi t_5 needs m4, past the Hazewinkel relations and the packed m-fields
    ctx = Context(prime=3, truncation=5)
    with _budget(10), pytest.raises(TruncationError):
        psi_t(ctx, 5)


def _psi_t_rational(ctx, k, memo):
    """psi t_k by the nested recursion over Fraction-valued m-basis Polys:

        sum_{i+j=k} m_i (psi t_j)^(p^i) = sum_{h+i+j=k} m_h t_i^(p^h) (x) t_j^(p^(h+i))

    a test oracle that shares no code with the flat tables."""
    if k == 0:
        return TensorPoly.unit(ctx, ctx.M)
    if k not in memo:
        p = ctx.prime
        acc = {}
        # the (h,i,j)=(k,0,0) term cancels the i=k term of the left side
        for h in range(0, k + 1):
            for i in range(0, k - h + 1):
                j = k - h - i
                if i == 0 and j == 0:
                    continue
                left = (0,) * (i - 1) + (p**h,) if i else ()
                right = (0,) * (j - 1) + (p ** (h + i),) if j else ()
                coeff = Poly.gen(ctx.M, h) if h else Poly.constant(ctx.M, 1)
                add_term(acc, (left, right), coeff)
        rhs = TensorPoly(ctx, acc)
        for i in range(1, k):
            sub = _psi_t_rational(ctx, k - i, memo) ** (p**i)
            rhs = rhs - sub.scale(Poly.gen(ctx.M, i))
        memo[k] = rhs
    return memo[k]


@pytest.fixture(scope="module")
def psi_oracle():
    """psi t_k at the prime p from the nested recursion, each coefficient
    changed to the v-basis, on contexts of its own."""
    contexts, rational, done = {}, {}, {}

    def get(p, k):
        if (p, k) not in done:
            ctx = contexts.setdefault(p, Context(prime=p))
            value = _psi_t_rational(ctx, k, rational.setdefault(p, {}))
            done[p, k] = value.map_coeffs(ctx.to_v_basis)
        return done[p, k]

    return get


@pytest.mark.parametrize(
    "p, k", [(3, k) for k in (1, 2, 3, 4)] + [(p, k) for p in (5, 7) for k in (1, 2, 3)]
)
def test_psi_t_matches_nested_rational_oracle(psi_oracle, p, k):
    assert psi_t(Context(prime=p), k) == psi_oracle(p, k)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_psi_monomial_matches_oracle_powers(psi_oracle, p):
    ctx = Context(prime=p)
    for exps in [(2,), (p + 1,), (1, 1), (p, 1), (0, 2), (1, 0, 1), (2, 1, 1)]:
        expected = TensorPoly.unit(ctx)
        for i, e in enumerate(exps, start=1):
            expected = expected * psi_oracle(p, i) ** e
        assert psi_monomial(ctx, exps) == expected, exps


def test_coassociativity_fails_on_a_perturbed_psi_table():
    # negative control: the check reads the memoized flat tables, so one
    # coefficient of psi t_2 changed by 1 must break it, whichever it is
    ctx = Context(prime=5)
    assert coassociativity_check(ctx, 2)
    table = ctx.memo["_psi_t_v"][(2,)].terms
    for key in list(table):
        table[key] += 1
        assert not coassociativity_check(ctx, 2), key
        table[key] -= 1
    assert coassociativity_check(ctx, 2)


def test_psi_checks_reject_edited_m_tables():
    # negative controls: the integrality, degree and counit checks run on
    # the flat table, here psi t_2 at p = 5 over Z[m] with one edit
    ctx = Context(prime=5)
    T, width = hopf._T_SHIFT, hopf._block(ctx)

    def key(m, left, right):  # m^m t^left (x) t^right
        return hopf._pack(m) + hopf._pack(left, T) + hopf._pack(right, T + width)

    def psi_t2_after(edit):
        edited = Context(prime=5)
        terms = dict(hopf._psi_t_m(ctx, 2).terms)
        edit(terms)
        edited.memo["_psi_t_m"][(2,)] = hopf._Flat(terms)
        return psi_t(edited, 2)

    # -5 m1 t1 (x) t1^4 becomes -4 m1 t1 (x) t1^4 = -4/5 v1 t1 (x) t1^4
    with pytest.raises(ValueError, match="non-integral"):
        psi_t2_after(lambda terms: terms.__setitem__(key((1,), (1,), (4,)), -4))
    # t1^2 (x) t1^5 has degree 7q, deg t_2 = 6q
    with pytest.raises(DegreeError):
        psi_t2_after(lambda terms: terms.__setitem__(key((), (2,), (5,)), 1))
    for side, gone in ((0, key((), (0, 1), ())), (1, key((), (), (0, 1)))):
        with pytest.raises(ValueError, match=f"counit check failed on side {side}"):
            psi_t2_after(lambda terms: terms.pop(gone))
    assert psi_t2_after(lambda terms: None) == psi_t(ctx, 2)


def test_psi_field_overflow_raises_before_any_table():
    # at p = 257, deg(t_3)/q = 1 + 257 + 257^2 = 66307 passes the 16-bit field
    ctx = Context(prime=257)
    with _budget(10), pytest.raises(ExponentOverflowError):
        psi_t(ctx, 3)
    assert not any(ctx.memo.values())
    # psi of a t-monomial: deg(t1^e)/q = e at any prime
    ctx = Context(prime=5)
    with _budget(10), pytest.raises(ExponentOverflowError):
        psi_monomial(ctx, (1 << 16,))
    assert not any(ctx.memo.values())


def test_psi_multiplicative(ctx7):
    pt = psi(TPoly.t(ctx7, 1, 2))
    assert pt.coeff((2,), ()) == 1
    assert pt.coeff((1,), (1,)) == 2
    assert pt.coeff((), (2,)) == 1
    assert psi(TPoly.unit(ctx7)).coeff((), ()) == 1
    # left coefficients pass through unchanged
    x = TPoly.monomial(ctx7, (1,), coeff=ctx7.v(3))
    assert psi(x).coeff((1,), ()) == ctx7.v(3)


def test_psi_t1t2_term_feeds_pairing_table(ctx7):
    # the term with right factor t1^p and left factor -c*v1*t1 has c = 1
    x = TPoly.monomial(ctx7, (1, 1))
    assert psi(x).coeff((1,), (7,)) == -ctx7.v(1)


def test_coassociativity_spot_check(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for k in (1, 2, 3):
            assert coassociativity_check(ctx, k)


def test_eta_r_values(ctx7):
    p = ctx7.prime
    assert eta_r(ctx7, ctx7.v(1)).terms == {
        (): ctx7.v(1),
        (1,): Poly.constant(ctx7.V, p),
    }
    unit = eta_r(ctx7, Poly.constant(ctx7.V, 1))
    assert unit.terms == {(): Poly.constant(ctx7.V, 1)}
    # rational variant on m2: m2 + m1 t1^p + t2
    em2 = eta_r_m(ctx7, ctx7.m(2))
    assert em2.terms == {
        (): ctx7.m(2),
        (p,): ctx7.m(1),
        (0, 1): Poly.constant(ctx7.M, 1),
    }
    # the flat right unit packs m1..m3 only, like the Hazewinkel relations
    with pytest.raises(TruncationError):
        eta_r_m(ctx7, ctx7.m(4))


def test_eta_r_is_ring_homomorphism(ctx7):
    x, y = ctx7.v(1), ctx7.v(2)
    assert eta_r(ctx7, x * y) == eta_r(ctx7, x) * eta_r(ctx7, y)
    assert eta_r(ctx7, x + y) == eta_r(ctx7, x) + eta_r(ctx7, y)


def test_pairing_dual_basis(ctx7):
    r01 = OperationCombo.basis(ctx7, 0, 1)
    assert pair(r01, TPoly.t(ctx7, 2)) == 1
    assert pair(r01, TPoly.monomial(ctx7, (0, 1), coeff=ctx7.v(3))) == ctx7.v(3)
    r1 = OperationCombo.basis(ctx7, 1)
    assert pair(r1, TPoly.monomial(ctx7, (7,))).is_zero()


def test_compose_pair_table_values(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        r1 = OperationCombo.basis(ctx, 1)
        rp = OperationCombo.basis(ctx, p)
        t1t2 = TPoly.monomial(ctx, (1, 1))
        assert compose_pair(r1, rp, t1t2) == -ctx.v(1)
        assert compose_pair(rp, r1, t1t2) == -ctx.v(1)
        t1p1 = TPoly.monomial(ctx, (p + 1,))
        assert compose_pair(r1, rp, t1p1) == p + 1
        assert compose_pair(rp, r1, t1p1) == p + 1
        # counit behavior of the identity operation
        r0 = OperationCombo.basis(ctx, 0)
        a = OperationCombo(ctx, {(1,): ctx.v(2), (0, 1): Poly.constant(ctx.V, 3)})
        x = TPoly.monomial(ctx, (1, 1))
        assert compose_pair(r0, a, x) == pair(a, x)
        assert compose_pair(a, r0, x) == pair(a, x)


def test_product_in_basis_commutator(ctx7):
    p = ctx7.prime
    bound = ctx7.qdeg(2 * p + 4)
    r1 = OperationCombo.basis(ctx7, 1)
    rp = OperationCombo.basis(ctx7, p)
    r01 = OperationCombo.basis(ctx7, 0, 1)
    commutator = product_in_basis(r1, rp, bound) - product_in_basis(rp, r1, bound)
    assert commutator == r01
    zero = product_in_basis(r1, r01, bound) - product_in_basis(r01, r1, bound)
    assert not zero.terms


def test_duality_of_product_and_pairing(ctx7):
    p = ctx7.prime
    bound = ctx7.qdeg(10)
    r1 = OperationCombo.basis(ctx7, 1)
    rp = OperationCombo.basis(ctx7, p)
    prod = product_in_basis(r1, rp, bound)
    for mono in monomials_up_to(bound, ctx7.T):
        x = TPoly.monomial(ctx7, mono.exps)
        assert pair(prod, x) == compose_pair(r1, rp, x)


def test_pair_word_associativity_sample(ctx7):
    p = ctx7.prime
    bound = ctx7.qdeg(2 * p + 4)
    r1 = OperationCombo.basis(ctx7, 1)
    rp = OperationCombo.basis(ctx7, p)
    ab = product_in_basis(rp, r1, bound)
    bc = product_in_basis(r1, rp, bound)
    for mono in monomials_up_to(bound, ctx7.T):
        x = TPoly.monomial(ctx7, mono.exps)
        left_assoc = compose_pair(ab, rp, x)  # (Rp R1) Rp
        nested = pair_word(ctx7, ((p,), (1,), (p,)), mono.exps)
        right_assoc = compose_pair(rp, bc, x)  # Rp (R1 Rp)
        assert left_assoc == nested == right_assoc


def _compose_pair_oracle(a, b, x):
    """<ab, x> by the carried loop: psi x = sum e_i (x) x_i in full, each
    inner value <b, x_i> carried into the left factor e_i through eta_r,
    then the result paired with a.  A test oracle for the nested step that
    compose_pair and pair_word share: it reads every term of psi x, where
    that step reads only the terms whose left factor divides an index of a."""
    ctx = a.ctx
    carried = {}
    for (le, re), c in psi(x).terms.items():
        inner = b.terms.get(re)
        if inner is not None:
            for u, d in eta_r(ctx, inner).terms.items():
                add_term(carried, add_exps(le, u), c * d)
    return pair(a, TPoly(ctx, carried))


# the lemma 7.1 pairing window at p = 5: t-monomials of degree <= (2p + 4)q
WINDOW_T5 = [m.exps for m in monomials_up_to(14 * 8, Context(prime=5).T)]
small_polys = st.dictionaries(
    st.sampled_from([(), (1,), (2,), (0, 1), (1, 1)]),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=2,
)
small_combos = st.dictionaries(
    st.sampled_from(WINDOW_T5), small_polys, min_size=1, max_size=2
)


def _compose_inputs(ab):
    """x with homogeneous monomial coefficients on t^(I + J), on
    t^(I + J - (1,)) (where the inner v1's p t1 from eta_R(v1) = v1 + p t1
    crosses into the left factor) and on the window."""
    a, b = ab
    sums = {add_exps(I, J) for I in a for J in b}
    shifted = {_trim((e[0] - 1,) + e[1:]) for e in sums if e and e[0]}
    x = st.dictionaries(
        st.sampled_from(sorted(sums | shifted | set(WINDOW_T5))),
        st.tuples(st.sampled_from([(), (1,), (0, 1)]), st.integers(-3, 3).filter(bool)),
        min_size=1,
        max_size=2,
    )
    return st.tuples(st.just(a), st.just(b), x)


compose_cases = st.tuples(small_combos, small_combos).flatmap(_compose_inputs)


@pytest.fixture(scope="module")
def compose_contexts():
    """One context for compose_pair and one for the carried-loop oracle."""
    return Context(prime=5), Context(prime=5)


@given(compose_cases)
@example(({(2,): {(): 1}}, {(1,): {(1,): 1}}, {(2,): ((), 1)}))
@settings(max_examples=40, deadline=None)
def test_compose_pair_matches_carried_loop_oracle(compose_contexts, case):
    values = []
    for ctx, evaluate in zip(compose_contexts, (compose_pair, _compose_pair_oracle)):
        a, b = (
            OperationCombo(ctx, {I: Poly(ctx.V, c) for I, c in terms.items()})
            for terms in case[:2]
        )
        x = TPoly(ctx, {e: Poly(ctx.V, {v: n}) for e, (v, n) in case[2].items()})
        values.append(evaluate(a, b, x))
    assert values[0] == values[1]


def test_compose_pair_crosses_inner_values_through_the_right_unit(ctx5):
    # <R[2] (v1 R[1]), t1^2>: psi t1^2 has the term 2 t1 (x) t1, the inner
    # value v1 crosses t1 as eta_R(v1) = v1 + p t1, and R[2] reads the
    # t1^2-coefficient 2p
    a = OperationCombo.basis(ctx5, 2)
    b = OperationCombo(ctx5, {(1,): ctx5.v(1)})
    x = TPoly.monomial(ctx5, (2,))
    assert compose_pair(a, b, x) == 2 * ctx5.prime
    assert _compose_pair_oracle(a, b, x) == 2 * ctx5.prime


def test_r_action_examples(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        assert r_action(ctx, (1,), ctx.v(1)) == p + Poly.zero(ctx.V)
        assert r_action(ctx, (1,), ctx.v(2)) == -(p + 1) * ctx.v(1) ** p
        expected = (1 - (p + 1) * p ** (p - 1)) * ctx.v(1)
        assert r_action(ctx, (p,), ctx.v(2)) == expected


def test_r_action_cartan_formula(ctx7):
    # R_I(xy) = sum_{J+K=I} R_J(x) R_K(y) on a sample
    p = ctx7.prime
    x, y = ctx7.v(1) ** 2, ctx7.v(2)
    I = (3,)
    lhs = r_action(ctx7, I, x * y)
    rhs = Poly.zero(ctx7.V)
    for j in range(I[0] + 1):
        rhs = rhs + r_action(ctx7, (j,), x) * r_action(ctx7, (I[0] - j,), y)
    assert lhs == rhs


def test_r_action_matches_eta_r(ctx7):
    for x in (ctx7.v(2), ctx7.v(1) ** 3 * ctx7.v(2), ctx7.v(3)):
        table = r_action_table(ctx7, x)
        eta = eta_r(ctx7, x)
        assert table == dict(eta.terms)


# v-polynomials of 1-3 terms over v1..v3 with degree <= 2(p^3 - 1), the
# shape of the benchmark's eval inputs, at p = 5 and p = 7.
WINDOWS = {
    p: [m.exps for m in monomials_up_to(2 * (p**3 - 1), Context(prime=p).V)]
    for p in (5, 7)
}
pruning_cases = st.sampled_from((5, 7)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.dictionaries(
            st.sampled_from(WINDOWS[p]),
            st.integers(-9, 9).filter(bool),
            min_size=1,
            max_size=3,
        ),
    )
)


def _cartan_indices(p):
    # R[0,0,0,1] has degree above every input, so it is absent from every table
    return [(1,), (p,), (0, 1), (p * p,), (1, 1), (0, 0, 1), (0, 0, 0, 1)]


@given(pruning_cases)
@settings(max_examples=40, deadline=None)
def test_pruned_r_action_matches_full_table(case):
    p, terms = case
    indices = _cartan_indices(p)
    # one context per call order: pruned tables first, or full tables first
    pruned_first, full_first = Context(prime=p), Context(prime=p)
    x = Poly(pruned_first.V, terms)
    cold = [r_action(pruned_first, I, x) for I in indices]
    table = r_action_table(full_first, x)
    assert cold == [table.get(I, 0) for I in indices]
    assert r_action_table(pruned_first, x) == table
    assert [r_action(full_first, I, x) for I in indices] == cold


def _eta_r_m_oracle(ctx, x):
    """The right unit on an m-polynomial by nested TPoly products of

        eta_R(m_i) = sum_{a+b=i} m_a t_b^(p^a)

    with Fraction-valued m-basis coefficients: a test oracle that shares no
    code with the flat right unit or the flat Cartan tables."""
    p = ctx.prime

    def generator(i):
        terms = {}
        for a in range(0, i + 1):
            b = i - a
            exps = (0,) * (b - 1) + (p**a,) if b else ()
            terms[exps] = Poly.gen(ctx.M, a) if a else Poly.constant(ctx.M, 1)
        return TPoly(ctx, terms)

    out = TPoly(ctx, {})
    for exps, c in x.terms.items():
        term = TPoly.unit(ctx, ctx.M).scale(Poly.constant(ctx.M, c))
        for i, e in enumerate(exps, start=1):
            if e:
                term = term * generator(i) ** e
        out = out + term
    return out


def _eta_r_oracle(ctx, x):
    """The right unit through the m-basis: the nested oracle on every
    m-monomial, then each coefficient back to the v-basis."""
    return _eta_r_m_oracle(ctx, ctx.to_m_basis(x)).map_coeffs(ctx.to_v_basis)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_eta_r_m_matches_nested_oracle(p):
    ctx = Context(prime=p)
    monos = [(1,), (0, 1), (0, 0, 1), (2,), (p, 1), (1, 0, 1), (1, 2, 1)]
    for exps in monos:
        x = Poly(ctx.M, {exps: 1})
        assert eta_r_m(ctx, x) == _eta_r_m_oracle(ctx, x), exps
    x = Poly(ctx.M, {(1, 1): Fraction(2, 3), (0, 0, 2): -5})
    assert eta_r_m(ctx, x) == _eta_r_m_oracle(ctx, x)


def _pow_keys(ctx, table="_eta_v_generator_pow"):
    return list(ctx.memo[table])


# Each memo_power table, with the map that fills it: the image of the
# monomial with exponents exps in the generators the table powers.
POWER_MAPS = {
    "_eta_v_generator_pow": lambda ctx, exps: eta_r(ctx, Poly(ctx.V, {exps: 1})),
    "_eta_r_m_generator_pow": lambda ctx, exps: eta_r_m(ctx, Poly(ctx.M, {exps: 1})),
    "v_in_m_pow": lambda ctx, exps: ctx.to_m_basis(Poly(ctx.V, {exps: 1})),
    "m_in_v_pow": lambda ctx, exps: ctx.to_v_basis(Poly(ctx.M, {exps: 1})),
    "_psi_t_v_pow": psi_monomial,
}


def _closed_form(table, ctx, n):
    """The terms of the table's image of x1^n, from the binomial theorem:
    eta_R(v1) = v1 + p t1, eta_R(m1) = m1 + t1, v1 = p m1, psi t1 = t1 (x) 1
    + 1 (x) t1."""
    p, C = ctx.prime, math.comb
    t = lambda k: (k,) if k else ()
    return {
        "_eta_v_generator_pow": lambda: {
            t(k): Poly(ctx.V, {(n - k,): C(n, k) * p**k}) for k in range(n + 1)
        },
        "_eta_r_m_generator_pow": lambda: {
            t(k): Poly(ctx.M, {(n - k,): C(n, k)}) for k in range(n + 1)
        },
        "v_in_m_pow": lambda: {(n,): p**n},
        "m_in_v_pow": lambda: {(n,): Fraction(1, p**n)},
        "_psi_t_v_pow": lambda: {
            (t(k), t(n - k)): Poly.constant(ctx.V, C(n, k)) for k in range(n + 1)
        },
    }[table]()


def test_eta_r_matches_m_basis_oracle_on_every_monomial(ctx5):
    # the structural sweep's inputs, in its order, on a context of its own
    p = ctx5.prime
    ctx = Context(prime=p)
    for exps in WINDOWS[p]:
        got = eta_r(ctx, Poly(ctx.V, {exps: 1}))
        assert got == _eta_r_oracle(ctx5, Poly(ctx5.V, {exps: 1})), exps


@pytest.fixture(scope="module")
def eta_contexts():
    """Per prime, one context for eta_r and one for the m-basis oracle."""
    return {p: (Context(prime=p), Context(prime=p)) for p in (5, 7)}


eta_cases = st.sampled_from((5, 7)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.dictionaries(
            st.sampled_from(WINDOWS[p]),
            st.integers(-9, 9).filter(bool)
            | st.builds(
                Fraction,
                st.integers(-9, 9).filter(bool),
                st.sampled_from((2, 3, p, p * p)),
            ),
            min_size=1,
            max_size=3,
        ),
    )
)


@given(eta_cases)
@settings(max_examples=40, deadline=None)
def test_eta_r_matches_m_basis_oracle(eta_contexts, case):
    p, terms = case
    ctx, octx = eta_contexts[p]
    expected = _eta_r_oracle(octx, Poly(octx.V, terms))
    x = Poly(ctx.V, terms)
    if all(c.is_integral(p) for c in expected.terms.values()):
        assert eta_r(ctx, x) == expected
    else:
        with pytest.raises(ValueError):
            eta_r(ctx, x)


@given(eta_cases)
@example((5, {(1,): Fraction(1, 25)}))  # a p left over after to_m_basis
@example((7, {(0, 1): Fraction(2, 49), (7,): Fraction(1, 2)}))
@example((5, {(0, 0, 1): 1}))  # every factor action of m3, e.g. R[0,p] m3 = m1
@settings(max_examples=40, deadline=None)
def test_cartan_side_matches_m_basis_oracle(eta_contexts, case):
    # the nested oracle shares no code with the flat Cartan tables; where
    # it has a non-integral coefficient the Cartan side must raise instead
    p, terms = case
    _, octx = eta_contexts[p]
    expected = _eta_r_oracle(octx, Poly(octx.V, terms)).terms
    integral = {I for I, c in expected.items() if c.is_integral(p)}
    ctx = Context(prime=p)
    x = Poly(ctx.V, terms)
    for I in _cartan_indices(p):
        if I in expected and I not in integral:
            with pytest.raises(ValueError):
                r_action(ctx, I, x)
        else:
            assert r_action(ctx, I, x) == expected.get(I, 0), I
    if len(integral) == len(expected):
        assert r_action_table(ctx, x) == expected
    else:
        with pytest.raises(ValueError):
            r_action_table(ctx, x)


def _decode(key):
    """(v-exponents, t-exponents) of a packed key, field by field: the low
    fields hold the v-monomial, the fields from ``_T_SHIFT`` up t^I or J."""
    fields = []
    while key:
        key, e = divmod(key, 1 << hopf._FIELD_BITS)
        fields.append(e)
    low = hopf._T_SHIFT // hopf._FIELD_BITS
    return _trim(fields[:low]), _trim(fields[low:])


def _decoded_rows(terms):
    """{t-exponents: {v-exponents: c}} of a flat table."""
    rows = {}
    for key, c in terms.items():
        v, t = _decode(key)
        rows.setdefault(t, {})[v] = c
    return rows


def test_sweep_flat_cores_unpack_to_the_public_functions():
    # the coherence sweep compares _eta_r_flat with _cartan_flat; on every
    # monomial of its window they decode to what eta_r and r_action_table
    # return, so equal flat forms mean equal public values and back
    ctx = Context(prime=5)
    for exps in WINDOWS[ctx.prime]:
        x = Poly(ctx.V, {exps: 1})
        flat = hopf._eta_r_flat(ctx, x).terms
        assert _decoded_rows(flat) == {
            t: c.terms for t, c in eta_r(ctx, x).terms.items()
        }, exps
        cartan = hopf._cartan_flat(ctx, x).terms
        assert _decoded_rows(cartan) == {
            I: c.terms for I, c in r_action_table(ctx, x).items()
        }, exps
        assert flat == cartan, exps


def test_flat_image_hands_out_no_memo_object():
    # a one-term image starts from a copy of its memoized power: clearing
    # what _flat_image returns leaves the memo tables as they were
    ctx = Context(prime=5)
    for x, generator in (
        (ctx.v(2), hopf._eta_v_generator),
        (Poly.gen(ctx.T, 2), hopf._psi_t_v),
    ):
        image = hopf._flat_image(ctx, x, generator, generator.__name__)
        assert image.terms == generator(Context(prime=5), 2).terms
        image.terms.clear()
        assert generator(ctx, 2).terms == generator(Context(prime=5), 2).terms


def _coherence(report):
    return {r.id: r for r in report.records}["cartan-right-unit-coherence"]


def test_coherence_fails_on_a_perturbed_right_unit():
    # negative control on the eta side: eta_R(v2) with any one coefficient
    # changed by 1 must break the flat comparison
    keys = list(hopf._eta_v_generator(Context(prime=5), 2).terms)
    for key in keys:
        ctx = Context(prime=5)
        hopf._eta_v_generator(ctx, 2).terms[key] += 1
        sweep = _coherence(hopf.verify_structural(ctx))
        assert not sweep.status and sweep.witness, key
        assert sweep.witness.split("; ")[0] == "v2", key


def test_coherence_fails_on_a_perturbed_cartan_basis_change():
    # negative control on the Cartan side: the right unit's generators are
    # built first, then one entry of the scaled image of m1 (v1 = p m1)
    # changed by 1, which only the Cartan side reads afterwards
    ctx = Context(prime=5)
    for i in (1, 2, 3):
        hopf._eta_v_generator(ctx, i)
    s, image = hopf._m_to_v_scaled(ctx, hopf._pack((1,)))
    assert (s, image) == (1, {hopf._pack((1,)): 1})
    image[hopf._pack((1,))] += 1
    sweep = _coherence(hopf.verify_structural(ctx))
    assert not sweep.status
    # the sweep stops at its fourth witness: 1, v1, ..., v1^4 checked
    assert sweep.witness == "v1; v1^2; v1^3; v1^4"
    assert sweep.computed == "5 monomials checked"


def test_cartan_field_overflow_raises_before_any_table():
    # at p = 5, deg(v1^e)/q = e: 2^16 is one past the 16-bit field
    ctx = Context(prime=5)
    x = ctx.v(1) + ctx.v(1) ** (1 << 16)
    with pytest.raises(ExponentOverflowError):
        r_action_table(ctx, x)
    with pytest.raises(ExponentOverflowError):
        r_action(ctx, (1,), x)
    assert not ctx.memo["rtable"] and not ctx.memo["rtable_pruned"]


def test_eta_r_rejects_non_integral_and_non_v_input(ctx5):
    p = ctx5.prime
    with pytest.raises(ValueError):
        eta_r(ctx5, Fraction(1, p) * ctx5.v(1))
    half = eta_r(ctx5, Fraction(1, 2) * ctx5.v(2))
    assert half == eta_r(ctx5, ctx5.v(2)).scale(Fraction(1, 2))
    with pytest.raises(AlphabetError):
        eta_r(ctx5, ctx5.m(1))
    with pytest.raises(AlphabetError):
        eta_r(ctx5, Poly.gen(ctx5.T, 1))


@pytest.mark.parametrize("table", POWER_MAPS)
def test_eta_r_power_closed_form_keeps_memo_small(table):
    # e.g. eta_R(v1) = v1 + p t1, so eta_R(v1^n) = sum_k C(n,k) p^k v1^(n-k) t1^k
    n, p = 300, 5
    ctx = Context(prime=p)
    got = POWER_MAPS[table](ctx, (n,))
    assert got.terms == _closed_form(table, ctx, n)
    # binary powering stores only the result: O(log n) entries, not n
    assert len(_pow_keys(ctx, table)) <= n.bit_length()


def test_eta_r_field_overflow_raises_before_any_arithmetic():
    # at p = 5, deg(v1^e)/q = e: 2^16 is one past the 16-bit field
    ctx = Context(prime=5)
    with pytest.raises(ExponentOverflowError):
        eta_r(ctx, ctx.v(1) + ctx.v(1) ** (1 << 16))
    # deg(v2^e)/q = (p + 1) e, and 6 * 10923 = 65538
    with pytest.raises(ExponentOverflowError):
        eta_r(ctx, ctx.v(2) ** 10923)
    assert _pow_keys(ctx) == []


@pytest.mark.parametrize("table", POWER_MAPS)
def test_eta_r_warm_and_cold_contexts_agree(table):
    # x1^5 comes before x1^4, so the warm context builds x1^5 and x1^9 by
    # binary powering and x1^2, x1^3, x1^4 from the power one below
    monos = [(1,), (2,), (3,), (5,), (4,), (2, 1), (0, 2), (1, 1, 1), (9, 0, 1)]
    image = POWER_MAPS[table]
    warm = Context(prime=7)
    warm_values = [image(warm, exps) for exps in monos]
    for exps, value in zip(monos, warm_values):
        cold = Context(prime=7)
        assert image(cold, exps) == value
    # only generator powers are stored: no mixed monomial, no powering step
    assert sorted(_pow_keys(warm, table)) == [
        (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 9), (2, 1), (2, 2), (3, 1)
    ]


def test_r_action_table_is_not_recursive(ctx5):
    # one loop step per unit of exponent: the table of v1^n builds under
    # a recursion limit far below n
    n, p = 300, ctx5.prime
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        table = r_action_table(Context(prime=p), ctx5.v(1) ** n)
    finally:
        sys.setrecursionlimit(limit)
    assert len(table) == n + 1
    assert table[(1,)] == n * p * ctx5.v(1) ** (n - 1)
    assert table[(n,)] == p**n + Poly.zero(ctx5.V)


def test_r_action_identity_and_additivity(ctx7):
    x = 3 * ctx7.v(2) - ctx7.v(1) ** 8
    assert r_action(ctx7, (), x) == x
    y = ctx7.v(1) ** 8
    assert r_action(ctx7, (1,), x + y) == r_action(ctx7, (1,), x) + r_action(
        ctx7, (1,), y
    )


def test_verify_relations_both_primes(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        report = verify_lemma_7_1(ctx)
        assert report.passed, [r.id for r in report.failures()]


def test_mutated_relation_fails(ctx5):
    # negative control: R1 Rp - Rp R1 = 2 R[0,1] leaves a residual at t2
    p = ctx5.prime
    E = OperationExpr.word
    mutated = (
        E(ctx5, (1,), (p,))
        - E(ctx5, (p,), (1,))
        - E(ctx5, (0, 1)).scale(2)
    )
    residual = mutated.pair_monomial((0, 1))
    assert residual == Poly.constant(ctx5.V, -1)


def test_operation_expr_degrees(ctx7):
    p, q = ctx7.prime, ctx7.q
    E = OperationExpr.word
    assert E(ctx7, (1,), (p,)).degree() == (p + 1) * q
    with pytest.raises(DegreeError):
        (E(ctx7, (1,)) + E(ctx7, (p,))).degree()


def test_koszul_degrees_all_even(ctx7):
    # every pairing input in play has even degree; odd input is rejected
    bound = ctx7.qdeg(10)
    for mono in monomials_up_to(bound, ctx7.T):
        assert mono.degree % 2 == 0


def test_tensor_and_tpoly_literals(ctx7):
    from bpcalc.hopf import parse_tensor, parse_tpoly

    x = parse_tpoly("v3*t2 + t1^2 - 7*t1", ctx7)
    assert x.coeff((0, 1)) == ctx7.v(3)
    assert parse_tpoly(str(x), ctx7) == x
    t = parse_tensor("t1^2(x)t2 + (-2*v1)*t1(x)t1^4 - 1(x)t2", ctx7)
    assert t.coeff((1,), (4,)) == -2 * ctx7.v(1)
    assert parse_tensor(str(t), ctx7) == t
    # the diagonal's own printout parses back to itself
    pt2 = psi_t(ctx7, 2)
    assert parse_tensor(str(pt2), ctx7) == pt2
    with pytest.raises(Exception):
        parse_tensor("t1 + t2", ctx7)  # missing (x) separator


def test_binomial_expansion_in_diagonal(ctx7):
    # right-factor t1^p coefficient of psi(t1^(p+1)) is (p+1) t1
    p = ctx7.prime
    diag = psi(TPoly.t(ctx7, 1, p + 1))
    assert diag.coeff((1,), (p,)) == p + 1
