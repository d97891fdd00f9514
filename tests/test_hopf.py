import contextlib
import itertools
import math
import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import _basis_oracle as oracle
from bpcalc import grading, hopf
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
    exps_divides,
    monomials_of_degree,
    monomials_up_to,
    reduce_mod,
)
from bpcalc.hopf import (
    OperationCombo,
    OperationExpr,
    TensorPoly,
    TPoly,
    coassociativity_check,
    commutator_relations,
    eta_r,
    pair_word,
    psi_monomial,
    psi_t,
    r_action,
    r_action_table,
    verify_lemma_7_1,
)


@pytest.fixture(scope="module")
def ctx7():
    return Context(prime=7)


def eta_r_m(ctx, x):
    """Right unit on a rational m-polynomial; coefficients stay in the
    m-basis.  The flat right unit ``hopf._eta_r_m_generator`` that
    ``eta_r`` reads through the Hazewinkel expansions, unpacked into a
    TPoly.  The packed m-fields hold m1..m3, the generators the Hazewinkel
    relations cover, so a term in m4 or above raises TruncationError."""
    if x.alphabet != ctx.M:
        raise AlphabetError("eta_r_m expects an m-polynomial")
    if any(len(e) > grading.HAZEWINKEL_MAX_INDEX for e in x.terms):
        raise TruncationError(
            f"eta_r_m covers m1..m{grading.HAZEWINKEL_MAX_INDEX}, the packed m-fields"
        )
    flat = grading._flat_image(ctx, x, hopf._eta_r_m_generator, "eta_r_m")
    return TPoly._raw(ctx, hopf._by_t(flat, ctx.M))


def psi(x):
    """The diagonal on a TPoly, extended multiplicatively from
    ``psi_monomial``; left coefficients pass through."""
    out = TensorPoly.zero(x.ctx)
    for exps, c in x.terms.items():
        out = out + psi_monomial(x.ctx, exps).scale(c)
    return out


def _to_v_coeffs(ctx, x):
    """x with every m-basis coefficient changed to the v-basis by the
    tuple-keyed oracle."""
    return type(x)(ctx, {k: oracle.to_v(ctx, c) for k, c in x.terms.items()})


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
        diff = oracle.to_m(ctx, c) + oracle.to_m(ctx, ctx.v(2))
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
    changed to the v-basis by the tuple-keyed oracle, on contexts of its
    own."""
    contexts, rational, done = {}, {}, {}

    def get(p, k):
        if (p, k) not in done:
            ctx = contexts.setdefault(p, Context(prime=p))
            value = _psi_t_rational(ctx, k, rational.setdefault(p, {}))
            done[p, k] = _to_v_coeffs(ctx, value)
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
    T, width = grading._T_SHIFT, hopf._block(ctx)

    def key(m, left, right):  # m^m t^left (x) t^right
        return grading._pack(m) + grading._pack(left, T) + grading._pack(right, T + width)

    def psi_t2_after(edit):
        edited = Context(prime=5)
        terms = dict(hopf._psi_t_m(ctx, 2).terms)
        edit(terms)
        edited.memo["_psi_t_m"][(2,)] = grading._Flat(terms)
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
    pt = psi(TPoly(ctx7, {(2,): 1}))
    assert pt.coeff((2,), ()) == 1
    assert pt.coeff((1,), (1,)) == 2
    assert pt.coeff((), (2,)) == 1
    assert psi(TPoly.unit(ctx7)).coeff((), ()) == 1
    # left coefficients pass through unchanged
    x = TPoly(ctx7, {(1,): ctx7.v(3)})
    assert psi(x).coeff((1,), ()) == ctx7.v(3)


def test_psi_t1t2_term_feeds_pairing_table(ctx7):
    # the term with right factor t1^p and left factor -c*v1*t1 has c = 1
    x = TPoly(ctx7, {(1, 1): 1})
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
    with pytest.raises(AlphabetError):
        eta_r_m(ctx7, ctx7.v(1))


def test_eta_r_is_ring_homomorphism(ctx7):
    x, y = ctx7.v(1), ctx7.v(2)
    assert eta_r(ctx7, x * y) == eta_r(ctx7, x) * eta_r(ctx7, y)
    assert eta_r(ctx7, x + y) == eta_r(ctx7, x) + eta_r(ctx7, y)


def pair(a, x):
    """The Kronecker pairing <a, x> of an OperationCombo with a TPoly,
    left-linear over the coefficient ring: the test oracle's last step."""
    out = Poly.zero(a.ctx.V)
    for idx, c in a.terms.items():
        out = out + c * x.coeff(idx)
    return out


def test_pairing_dual_basis(ctx7):
    r01 = OperationCombo.basis(ctx7, 0, 1)
    assert pair_word(ctx7, ((0, 1),), (0, 1)) == 1
    assert pair(r01, TPoly(ctx7, {(0, 1): ctx7.v(3)})) == ctx7.v(3)
    assert pair_word(ctx7, ((1,),), (7,)).is_zero()
    # a one-letter word expands to its own basis element
    assert OperationExpr.word(ctx7, (0, 1)).in_basis(ctx7.qdeg(10)) == r01


def test_compose_pair_table_values(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        r1, rp = (1,), (p,)
        assert pair_word(ctx, (r1, rp), (1, 1)) == -ctx.v(1)
        assert pair_word(ctx, (rp, r1), (1, 1)) == -ctx.v(1)
        assert pair_word(ctx, (r1, rp), (p + 1,)) == p + 1
        assert pair_word(ctx, (rp, r1), (p + 1,)) == p + 1
        # counit behavior of the identity operation, on either side
        for w in (r1, (0, 1)):
            for exps in ((1,), (0, 1), (1, 1), (p + 1,)):
                alone = pair_word(ctx, (w,), exps)
                assert pair_word(ctx, ((), w), exps) == alone
                assert pair_word(ctx, (w, ()), exps) == alone


def test_product_in_basis_commutator(ctx7):
    p = ctx7.prime
    bound = ctx7.qdeg(2 * p + 4)
    E = OperationExpr.word
    r1, rp, r01 = (1,), (p,), (0, 1)
    commutator = (E(ctx7, r1, rp) - E(ctx7, rp, r1)).in_basis(bound)
    assert commutator == OperationCombo.basis(ctx7, 0, 1)
    assert str(commutator) == "R[0,1]"
    zero = (E(ctx7, r1, r01) - E(ctx7, r01, r1)).in_basis(bound)
    assert not zero.terms


def test_duality_of_product_and_pairing(ctx7):
    p = ctx7.prime
    bound = ctx7.qdeg(10)
    prod = OperationExpr.word(ctx7, (1,), (p,)).in_basis(bound)
    assert prod.terms
    for mono in monomials_up_to(bound, ctx7.T):
        x = TPoly(ctx7, {mono.exps: 1})
        assert pair(prod, x) == pair_word(ctx7, ((1,), (p,)), mono.exps)


def test_pair_word_associativity_sample(ctx7):
    p = ctx7.prime
    bound = ctx7.qdeg(2 * p + 4)
    rp = OperationCombo.basis(ctx7, p)
    ab = OperationExpr.word(ctx7, (p,), (1,)).in_basis(bound)
    bc = OperationExpr.word(ctx7, (1,), (p,)).in_basis(bound)
    for mono in monomials_up_to(bound, ctx7.T):
        # (Rp R1) Rp: left-linear over the coefficients of Rp R1
        left_assoc = Poly.zero(ctx7.V)
        for J, c in ab.terms.items():
            left_assoc = left_assoc + c * pair_word(ctx7, (J, (p,)), mono.exps)
        nested = pair_word(ctx7, ((p,), (1,), (p,)), mono.exps)
        # Rp (R1 Rp): the inner values cross through the right unit
        right_assoc = _compose_pair_oracle(rp, bc, TPoly(ctx7, {mono.exps: 1}))
        assert left_assoc == nested == right_assoc


def _compose_pair_oracle(a, b, x):
    """<ab, x> by the carried loop: psi x = sum e_i (x) x_i in full, each
    inner value <b, x_i> carried into the left factor e_i through eta_r,
    then the result paired with a.  A test oracle for the nested step of
    pair_word: it reads every term of psi x, where that step reads only the
    terms whose left factor divides the head letter."""
    ctx = a.ctx
    carried = {}
    for (le, re), c in psi(x).terms.items():
        inner = b.terms.get(re)
        if inner is not None:
            for u, d in eta_r(ctx, inner).terms.items():
                add_term(carried, add_exps(le, u), c * d)
    return pair(a, TPoly(ctx, carried))


# letters of degree <= (p + 1)q at p = 5
T5 = Context(prime=5).T
LETTERS_T5 = [m.exps for m in monomials_up_to(6 * 8, T5)]


def _word_inputs(head_tail_raise):
    """t^exps of the word's degree raised by 0, q, 2q or 6q, so that the
    value is a v-polynomial of that degree."""
    head, tail, raise_q = head_tail_raise
    degree = sum(T5.degree_of(i) for i in (head, *tail)) + 8 * raise_q
    exps = [m.exps for m in monomials_of_degree(degree, T5)]
    return st.tuples(st.just(head), st.just(tail), st.sampled_from(exps))


word_cases = st.tuples(
    st.sampled_from(LETTERS_T5),
    st.lists(st.sampled_from(LETTERS_T5), min_size=1, max_size=2),
    st.sampled_from([0, 1, 2, 6]),
).flatmap(_word_inputs)


@pytest.fixture(scope="module")
def compose_contexts():
    """One context for pair_word and one for the carried-loop oracle."""
    return Context(prime=5), Context(prime=5)


@given(word_cases)
@example(((1,), [(1,), (5,)], (1, 1)))
@example(((2,), [(1,)], (4,)))
@settings(max_examples=40, deadline=None)
def test_compose_pair_matches_carried_loop_oracle(compose_contexts, case):
    """<R_I w, t^exps> for a head letter I and a 1-2-letter tail w: the
    tail's expansion has v-polynomial coefficients, which the oracle
    carries through eta_r."""
    I, w, exps = case
    nested_ctx, oracle_ctx = compose_contexts
    tail = OperationExpr.word(oracle_ctx, *w).in_basis(oracle_ctx.T.degree_of(exps))
    want = _compose_pair_oracle(
        OperationCombo.basis(oracle_ctx, *I), tail, TPoly(oracle_ctx, {exps: 1})
    )
    assert pair_word(nested_ctx, (I, *w), exps) == want


def test_compose_pair_crosses_inner_values_through_the_right_unit(ctx5):
    # <R[1]R[1]R[p], t1*t2>: the term 1 (x) t1*t2 of psi(t1*t2) carries the
    # inner value <R[1]R[p], t1*t2> = -v1, which crosses as
    # eta_R(-v1) = -v1 - p t1, so R[1] reads -p from it and the value is
    # 7 - 5 = 2; were -v1 to cross as itself, R[1] would read 0 there and
    # the value would be 7
    p = ctx5.prime
    assert pair_word(ctx5, ((1,), (p,)), (1, 1)) == -ctx5.v(1)
    assert pair_word(ctx5, ((1,), (1,), (p,)), (1, 1)) == 2
    tail = OperationExpr.word(ctx5, (1,), (p,)).in_basis(ctx5.T.degree_of((1, 1)))
    x = TPoly(ctx5, {(1, 1): 1})
    assert _compose_pair_oracle(OperationCombo.basis(ctx5, 1), tail, x) == 2


def _pair_word_scan(ctx, word, exps, memo):
    """<word, t^exps> by the scanning loop that pair_word replaced, kept as
    its test oracle: it reads every term of psi t^exps (``psi_monomial``)
    and skips those whose left factor does not divide the head letter,
    where pair_word visits only the divisors of the head.  Values are
    memoized in ``memo`` under (word, exps)."""
    got = memo.get((word, exps))
    if got is not None:
        return got
    head, rest = word[0], word[1:]
    if not rest:
        return Poly.constant(ctx.V, 1 if _trim(exps) == head else 0)
    acc = Poly.zero(ctx.V)
    for (le, re), c in psi_monomial(ctx, exps).terms.items():
        if not exps_divides(le, head):
            continue
        value = _pair_word_scan(ctx, rest, re, memo)
        if not value:
            continue
        if value.terms.keys() == {()}:
            if le == head:
                acc = acc + c * value
            continue
        u = _trim(tuple(h - (le[i] if i < len(le) else 0) for i, h in enumerate(head)))
        d = eta_r(ctx, value).terms.get(u)
        if d is not None:
            acc = acc + c * d
    memo[word, exps] = acc
    return acc


@pytest.mark.parametrize("p", [3, 5])
def test_pair_word_matches_the_scanning_loop_on_the_window(p):
    # every 2- and 3-letter word over R[1], R[p], R[0,1], against every
    # t-monomial of the lemma 7.1 pairing window, each side on its own context
    ctx, octx, memo = Context(prime=p), Context(prime=p), {}
    letters = ((1,), (p,), (0, 1))
    words = [w for n in (2, 3) for w in itertools.product(letters, repeat=n)]
    window = monomials_up_to(ctx.qdeg(hopf.pairing_window_q(p)), ctx.T)
    for mono in window:
        for word in words:
            want = _pair_word_scan(octx, word, mono.exps, memo)
            assert pair_word(ctx, word, mono.exps) == want, (word, mono.exps)


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
    m-monomial, then each coefficient back to the v-basis, both changes by
    the tuple-keyed oracle."""
    m_basis = _eta_r_m_oracle(ctx, oracle.to_m(ctx, x))
    return _to_v_coeffs(ctx, m_basis)


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
    "_v_in_m_flat_pow": lambda ctx, exps: ctx.to_m_basis(Poly(ctx.V, {exps: 1})),
    "_m_in_v_scaled_pow": lambda ctx, exps: ctx.to_v_basis(Poly(ctx.M, {exps: 1})),
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
        "_v_in_m_flat_pow": lambda: {(n,): p**n},
        "_m_in_v_scaled_pow": lambda: {(n,): Fraction(1, p**n)},
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
        key, e = divmod(key, 1 << grading._FIELD_BITS)
        fields.append(e)
    low = grading._T_SHIFT // grading._FIELD_BITS
    return _trim(fields[:low]), _trim(fields[low:])


def _decoded_rows(terms):
    """{t-exponents: {v-exponents: c}} of a flat table."""
    rows = {}
    for key, c in terms.items():
        v, t = _decode(key)
        rows.setdefault(t, {})[v] = c
    return rows


def test_sweep_flat_cores_unpack_to_the_public_functions():
    # the coherence sweep compares p^K _eta_r_flat with _cartan_scaled, the
    # undivided _cartan_flat, and runs _cartan_flat itself on a failure; on
    # every monomial of its window the flat cores decode to what eta_r and
    # r_action_table return, so equal flat forms mean equal public values
    # and back
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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_undivided_cartan_side_is_p_to_the_k_times_the_divided_one(p):
    # the sweep's comparison: _cartan_scaled, zeros dropped, is p^K times
    # _cartan_flat (K = deg/q) on every monomial of the window
    ctx = Context(prime=p)
    for mono in monomials_up_to(2 * (p**3 - 1), ctx.V):
        x, K = Poly(ctx.V, {mono.exps: 1}), mono.degree // ctx.q
        scaled = hopf._cartan_scaled(ctx, x, K, {})
        divided = hopf._cartan_flat(ctx, x).terms
        assert {k: c for k, c in scaled.items() if c} == {
            k: p**K * c for k, c in divided.items()
        }, mono


def test_flat_image_hands_out_no_memo_object():
    # a one-term image starts from a copy of its memoized power: clearing
    # what _flat_image returns leaves the memo tables as they were
    ctx = Context(prime=5)
    for x, generator in (
        (ctx.v(2), hopf._eta_v_generator),
        (Poly.gen(ctx.T, 2), hopf._psi_t_v),
    ):
        image = grading._flat_image(ctx, x, generator, generator.__name__)
        assert image.terms == generator(Context(prime=5), 2).terms
        image.terms.clear()
        assert generator(ctx, 2).terms == generator(Context(prime=5), 2).terms


def _coherence(report):
    return {r.id: r for r in report.records}["cartan-right-unit-coherence"]


def _eta_generators(ctx):
    for i in (1, 2, 3):
        hopf._eta_v_generator(ctx, i)


def _right_unit(ctx, key):
    hopf._eta_v_generator(ctx, 2).terms[key] += 1


def _v1_right_unit(ctx, key):
    hopf._eta_v_generator(ctx, 1).terms[key] += 1


def _cartan_basis_change(ctx, key):
    # the right unit's generators first: only the Cartan side reads the
    # scaled image afterwards
    _eta_generators(ctx)
    s, pairs = grading._m_to_v_scaled(ctx, key)
    ctx.memo["_m_to_v_scaled"][key] = (s, tuple((k, d + (k == key)) for k, d in pairs))


def _cartan_v_to_m(ctx, key):
    _eta_generators(ctx)
    grading._v_in_m_flat(ctx, 2).terms[key] += 1


def _keys(table, i):
    return lambda: list(table(Context(prime=5), i).terms)


# the coherence controls at p = 5: name -> (perturbation(ctx, key) adding 1
# to one entry, the keys of the entries it is run at)
PERTURBATIONS = {
    "right_unit": (_right_unit, _keys(hopf._eta_v_generator, 2)),
    "v1_right_unit": (_v1_right_unit, _keys(hopf._eta_v_generator, 1)),
    "cartan_basis_change": (_cartan_basis_change, lambda: [grading._pack((1,))]),
    "cartan_v_to_m": (_cartan_v_to_m, _keys(grading._v_in_m_flat, 2)),
}


def _perturbed_coherence(name, key):
    perturb, _ = PERTURBATIONS[name]
    ctx = Context(prime=5)
    perturb(ctx, key)
    return _coherence(hopf.verify_structural(ctx))


def test_coherence_fails_on_a_perturbed_right_unit():
    # negative control on the eta side: eta_R(v2) with any one coefficient
    # changed by 1 must break the flat comparison
    for key in PERTURBATIONS["right_unit"][1]():
        sweep = _perturbed_coherence("right_unit", key)
        assert not sweep.status and sweep.witness, key
        assert sweep.witness.split("; ")[0] == "v2", key


def test_coherence_fails_on_a_perturbed_cartan_basis_change():
    # negative control on the Cartan side: one entry of the scaled image of
    # m1 (v1 = p m1) changed by 1
    ctx = Context(prime=5)
    s, pairs = grading._m_to_v_scaled(ctx, grading._pack((1,)))
    assert (s, pairs) == (1, ((grading._pack((1,)), 1),))
    sweep = _perturbed_coherence("cartan_basis_change", grading._pack((1,)))
    assert not sweep.status
    # the sweep stops at its fourth witness: 1, v1, ..., v1^4 checked
    assert sweep.witness == "v1; v1^2; v1^3; v1^4"
    assert sweep.computed == "5 monomials checked"


def test_coherence_fails_on_a_perturbed_cartan_v_to_m():
    # negative control on the Cartan side's change to the m-basis: any one
    # coefficient of v2 = p m2 - v1^p m1 changed by 1 leaves R_0(v2)
    # non-integral, which the sweep records as a mismatch at v2
    keys = PERTURBATIONS["cartan_v_to_m"][1]()
    assert len(keys) == 2
    for key in keys:
        sweep = _perturbed_coherence("cartan_v_to_m", key)
        assert not sweep.status, key
        assert sweep.witness.split("; ")[0].startswith("v2: "), key
        assert "v1;" not in sweep.witness, key


def test_coherence_fails_on_a_perturbed_v1_right_unit():
    # negative control on the v1-chains: the sweep reads eta_R(v1) from its
    # memo at every step, so any one coefficient of v1 + p t1 changed by 1
    # breaks the comparison at v1 and on up the chain from 1
    keys = PERTURBATIONS["v1_right_unit"][1]()
    assert len(keys) == 2
    for key in keys:
        sweep = _perturbed_coherence("v1_right_unit", key)
        assert not sweep.status, key
        assert sweep.witness == "v1; v1^2; v1^3; v1^4", key


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_undivided_sweep_records_what_the_dividing_comparison_gives(monkeypatch, name):
    # with _cartan_scaled never 0, every monomial runs the dividing
    # comparison eta == _cartan_flat; the record is the same either way
    for key in PERTURBATIONS[name][1]():
        undivided = _perturbed_coherence(name, key)
        with monkeypatch.context() as patch:
            patch.setattr(hopf, "_cartan_scaled", lambda ctx, x, K, into: {0: 1})
            dividing = _perturbed_coherence(name, key)
        assert not dividing.status, key
        fields = lambda r: (r.status, r.computed, r.witness)
        assert fields(undivided) == fields(dividing), key


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chain_step_is_p_eta_v1_times_the_previous_image(p):
    # N(x) = -p^K eta_R(x), K = deg(x)/q: on every window monomial with
    # a1 > 0 the step from N(v1^(a-1) m) is exactly N(v1^a m), and on a
    # table whose products cancel it drops the zero sum as _Flat's does
    ctx = Context(prime=p)
    neg = lambda x, K: {k: -(p**K) * c for k, c in hopf._eta_r_flat(ctx, x).terms.items()}
    for mono in monomials_up_to(2 * (p**3 - 1), ctx.V):
        if mono.exps[:1] and mono.exps[0]:
            K = mono.degree // ctx.q
            below = Poly(ctx.V, {(mono.exps[0] - 1,) + mono.exps[1:]: 1})
            step = hopf._times_p_eta_v1(ctx, neg(below, K - 1))
            assert step == neg(Poly(ctx.V, {mono.exps: 1}), K), mono
    v1, t1 = grading._gen(1), grading._gen(1, 1, grading._T_SHIFT)
    assert hopf._eta_v_generator(ctx, 1).terms == {v1: 1, t1: p}
    cancelling = {v1: 1, t1: -p}  # p^2 v1 t1 - p^2 v1 t1 = 0
    step = hopf._times_p_eta_v1(ctx, cancelling)
    assert step == {2 * v1: p, 2 * t1: -(p**3)}
    assert step == (grading._Flat(cancelling) * hopf._eta_v_generator(ctx, 1)).scale(p).terms


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sweep_eta_side_matches_eta_r_flat_on_every_monomial(monkeypatch, p):
    # the eta images the sweep builds along v1-chains, compared in place of
    # the Cartan side with p^K _eta_r_flat on a fresh context: equal on the
    # whole window, and only the monomials with a1 = 0 are built from scratch
    real, fresh = hopf._eta_r_flat, Context(prime=p)
    built, compared = [], []

    def eta_r_flat(ctx, x):
        built.append(next(iter(x.terms)))
        return real(ctx, x)

    def cartan_scaled(ctx, x, K, into):
        compared.append(next(iter(x.terms)))
        for k, c in real(fresh, x).terms.items():
            into[k] = into.get(k, 0) + p**K * c
        return into

    monkeypatch.setattr(hopf, "_eta_r_flat", eta_r_flat)
    monkeypatch.setattr(hopf, "_cartan_scaled", cartan_scaled)
    monkeypatch.setattr(hopf, "_cartan_flat", None)  # a pass divides nothing
    monkeypatch.setattr(hopf, "coassociativity_check", lambda ctx, k: True)
    ctx = Context(prime=p)
    sweep = _coherence(hopf.verify_structural(ctx))
    window = [m.exps for m in monomials_up_to(2 * (p**3 - 1), ctx.V)]
    assert sweep.status and sweep.computed == f"{len(window)} monomials checked"
    assert compared == window
    assert built == [e for e in window if not e[:1] or not e[0]]
    # the sweep stores no power of v1: each chain multiplies its own image
    assert [k for k in ctx.memo["_eta_v_generator_pow"] if k[0] == 1] == []


def test_structural_passes_at_p3():
    report = hopf.verify_structural(Context(prime=3))
    assert report.passed
    assert _coherence(report).computed == "33 monomials checked"


# (input, r_action(R[1], x), r_action_table(x)) at p = 5; a str is an
# exception's "type: message".  The Cartan side takes v-polynomials only
CARTAN_CONTRACT = [
    ("m1", *["AlphabetError: r_action expects a v-polynomial"] * 2),
    ("m1^5", *["AlphabetError: r_action expects a v-polynomial"] * 2),
    ("p*m1", *["AlphabetError: r_action expects a v-polynomial"] * 2),
    ("t1", *["AlphabetError: r_action expects a v-polynomial"] * 2),
    ("v1*v4", *["TruncationError: no substitution image for v4"] * 2),
]


def _outcome(fn):
    try:
        value = fn()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, dict):
        return {k: str(v) for k, v in value.items()}
    return str(value)


@pytest.mark.parametrize(
    "literal, action, table", CARTAN_CONTRACT, ids=[c[0] for c in CARTAN_CONTRACT]
)
def test_cartan_input_contract_is_the_parents(literal, action, table):
    # the Cartan side keeps the input contract of ctx.to_m_basis, under the
    # name r_action: another alphabet is an AlphabetError, a term in v4 a
    # TruncationError naming v4
    make = {
        "m1": lambda c: c.m(1),
        "m1^5": lambda c: c.m(1, 5),
        "p*m1": lambda c: c.prime * c.m(1),
        "t1": lambda c: Poly.gen(c.T, 1),
        "v1*v4": lambda c: c.v(1) * c.v(4),
    }[literal]
    ctx = Context(prime=5)
    assert _outcome(lambda: r_action(ctx, (1,), make(ctx))) == action
    ctx = Context(prime=5)
    assert _outcome(lambda: r_action_table(ctx, make(ctx))) == table


def test_cartan_side_takes_v_polynomials_only():
    # r_action, r_action_table and act, R[0] alone included, reject m- and
    # t-polynomials with an AlphabetError naming r_action, not to_m_basis,
    # before any memo table fills
    E = OperationExpr.word
    runs = {
        "r_action": lambda ctx, x: r_action(ctx, (1,), x),
        "r_action_table": r_action_table,
        "R[0]": lambda ctx, x: E(ctx, (0,)).act(x),
        "R[1] + R[0]": lambda ctx, x: (E(ctx, (1,)) + E(ctx, (0,))).act(x),
        "R[1]R[p]": lambda ctx, x: E(ctx, (1,), (ctx.prime,)).act(x),
    }
    inputs = {
        "m1": lambda ctx: ctx.m(1),
        "m4": lambda ctx: ctx.m(4),
        "m1 + p^4*m4": lambda ctx: ctx.m(1) + ctx.prime**4 * ctx.m(4),
        "t1": lambda ctx: Poly.gen(ctx.T, 1),
    }
    for (name, run), (literal, make) in itertools.product(runs.items(), inputs.items()):
        ctx = Context(prime=5)
        with pytest.raises(AlphabetError) as exc:
            run(ctx, make(ctx))
        assert str(exc.value) == "r_action expects a v-polynomial", (name, literal)
        assert not any(ctx.memo.values()), (name, literal)
    # the basis change itself still names to_m_basis
    ctx = Context(prime=5)
    with pytest.raises(AlphabetError, match="^to_m_basis expects a v-polynomial$"):
        ctx.to_m_basis(Poly.gen(ctx.T, 1))


def test_cartan_field_overflow_raises_before_any_table():
    # at p = 5, deg(v1^e)/q = e: 2^16 is one past the 16-bit field
    ctx = Context(prime=5)
    x = ctx.v(1) + ctx.v(1) ** (1 << 16)
    with pytest.raises(ExponentOverflowError):
        r_action_table(ctx, x)
    with pytest.raises(ExponentOverflowError):
        r_action(ctx, (1,), x)
    assert not ctx.memo["rtable"]


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
    assert r_action(ctx7, (), x) == r_action(ctx7, (0,), x) == x
    y = ctx7.v(1) ** 8
    assert r_action(ctx7, (1,), x + y) == r_action(ctx7, (1,), x) + r_action(
        ctx7, (1,), y
    )


def _act_oracle(expr, x):
    """sum s * w(x) with each word w applied letter by letter through
    r_action, rightmost first, stopping at zero: the word-by-word loop that
    OperationExpr.act replaced, kept as its test oracle.  It raises
    ValueError wherever one letter's value is not integral."""
    ctx = expr.ctx
    out = Poly.zero(ctx.V)
    for s, word in expr.parts:
        value = x
        for idx in reversed(word):
            value = r_action(ctx, idx, value)
            if value.is_zero():
                break
        out = out + s * value
    return out


@pytest.fixture(scope="module")
def act_contexts():
    """Per prime, one context for act and one for the word-by-word oracle."""
    return {p: (Context(prime=p), Context(prime=p)) for p in (5, 7)}


act_cases = st.sampled_from((5, 7)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.tuples(
                st.sampled_from((1, -1, 2, Fraction(1, p), Fraction(-2, p), Fraction(1, 2))),
                st.lists(
                    st.sampled_from(((), (1,), (p,), (0, 1), (1, 1), (p + 1,), (p * p,))),
                    min_size=1,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        st.dictionaries(
            st.sampled_from(WINDOWS[p]),
            st.integers(-9, 9).filter(bool)
            | st.builds(Fraction, st.sampled_from((1, -1)), st.sampled_from((2, 3, p, p * p))),
            min_size=1,
            max_size=3,
        ),
    )
)


@given(act_cases)
@example((7, [(1, [()])], {(1,): Fraction(1, 7)}))  # R[0] on 1/7*v1 = 1/7*v1
@example((7, [(1, [(1,)]), (1, [()])], {(1,): Fraction(1, 7)}))  # 1 + 1/7*v1
@example((7, [(Fraction(1, 7), [(1,)])], {(0, 1): 1}))  # -8/7*v1^7
@settings(max_examples=60, deadline=None)
def test_act_matches_word_by_word_oracle(act_contexts, case):
    p, parts, terms = case
    ctx, octx = act_contexts[p]
    try:
        expected = _act_oracle(OperationExpr(octx, tuple(parts)), Poly(octx.V, terms))
    except ValueError:
        return  # a letter's value is not integral: act checks only the sum
    assert OperationExpr(ctx, tuple(parts)).act(Poly(ctx.V, terms)) == expected


def test_relations_act_as_zero_on_the_window(ctx5):
    for name, expr in commutator_relations(ctx5):
        for exps in WINDOWS[5]:
            assert expr.act(Poly(ctx5.V, {exps: 1})).is_zero(), (name, exps)


def _table_value(ctx, word, x):
    """w(x) letter by letter, rightmost first, each letter's value read from
    the full Cartan tables of the value so far (``r_action_table``)."""
    for idx in reversed(word):
        if idx:
            x = r_action_table(ctx, x).get(_trim(idx), Poly.zero(ctx.V))
    return x


ACT_WORDS = [((1,),), ((5,),), ((0, 1),), ((1, 1),), ((6,),), ((0, 0, 1),),
             ((1,), (5,)), ((0, 1), (1,)), ((5,), (1,), (1,)), ((1,), (), (0, 1))]


def _act_inputs(ctx):
    """v-polynomials with int and with p-integral Fraction coefficients."""
    v1, v2, v3 = ctx.v(1), ctx.v(2), ctx.v(3)
    return [
        v2,
        v1**5 * v2 - 3 * v3,
        v1**6 + 17,
        Fraction(2, 3) * v1**2 * v2 + Fraction(-5, 7) * v3,
        Fraction(1, 2) * v2**2 + v1**3,
    ]


def test_act_matches_the_full_cartan_tables():
    # act keeps packed m-keys from the change to the m-basis through every
    # letter; the tables run each letter through the closed-form tables of
    # every index
    ctx, tctx = Context(prime=5), Context(prime=5)
    for y in _act_inputs(ctx):
        for word in ACT_WORDS:
            want = _table_value(tctx, word, y)
            expr = OperationExpr.word(ctx, *word)
            assert expr.act(y) == want, (str(y), word)
            # a scalar with p in its denominator scales the value exactly
            half = OperationExpr.word(ctx, *word, scalar=Fraction(3, 25))
            assert half.act(y) == want.scale(Fraction(3, 25))


@pytest.mark.parametrize("k", [1, 2])
def test_act_value_error_is_a_non_integral_table_value(k):
    # R_I(y / p^k) is the table value of y over p^k: act raises ValueError
    # exactly when that is not integral
    ctx, p = Context(prime=5), 5
    y = ctx.v(1) ** 2 * ctx.v(2) + 2 * ctx.v(3)
    x = y.scale(Fraction(1, p**k))
    seen = set()
    for index, value in r_action_table(Context(prime=p), y).items():
        if not index:
            continue
        want = value.scale(Fraction(1, p**k))
        expr = OperationExpr.word(ctx, index)
        if want.is_integral(p):
            assert expr.act(x) == want, index
        else:
            with pytest.raises(ValueError, match=r"^non-integral value of R\["):
                expr.act(x)
        seen.add(want.is_integral(p))
    assert seen == {True, False}


def test_act_truncation_errors_are_the_tables():
    ctx = Context(prime=5)
    E = OperationExpr.word
    # an index past the truncation raises before any arithmetic, even on 0
    for x in (Poly.zero(ctx.V), ctx.v(1)):
        with pytest.raises(TruncationError, match=r"operation index \(0, 0, 0, 0, 1\)"):
            E(ctx, (1,), (0, 0, 0, 0, 1)).act(x)
    # v4 in the input: act, R[0] alone included, and the tables raise the
    # same error
    x = ctx.v(1) * ctx.v(4)
    for run in (
        lambda: E(ctx, (1,)).act(x),
        lambda: E(ctx, (0,)).act(x),
        lambda: r_action_table(ctx, x),
    ):
        with pytest.raises(TruncationError) as exc:
            run()
        assert str(exc.value) == "no substitution image for v4"


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


def _printed_values(ctx):
    """(value, its printed form) pairs over every kind that goes through the
    one term and monomial printer, and the group strings: zero,
    coefficients 1 and -1, rational coefficients and constant terms,
    coefficients printed in parentheses, the constant t-monomial and
    Fraction scalars of an OperationExpr (forms captured before the printer
    code was shared)."""
    from bpcalc.abloc import FGAbelianGroup, InvertedSet, localize, parse_group
    from bpcalc.grading import Monomial, TermIdeal

    v1, v2, v3 = ctx.v(1), ctx.v(2), ctx.v(3)
    F = Fraction
    return [
        (Poly.zero(ctx.V), "0"),
        (-v1 + 2 * v1 * v2, "-v1 + 2*v1*v2"),
        (F(3, 7) * v1**2 - F(1, 2) * v3, "3/7*v1^2 - 1/2*v3"),
        (-5 + v1, "-5 + v1"),
        (4 - v1 * v2**3, "4 - v1*v2^3"),
        (Poly(ctx.T, {(1,): -1, (0, 2): F(2, 3), (): 1}), "1 - t1 + 2/3*t2^2"),
        (ctx.m(1).scale(F(-1, 7)), "-1/7*m1"),
        (Monomial(ctx.M, (0, 3, 1)), "m2^3*m3"),
        (Monomial(ctx.V, ()), "1"),
        (TermIdeal.zero(ctx.prime), "(0)"),
        (TermIdeal.unit(ctx.prime), "(1)"),
        (ctx.ideal_chain(2), "(p, v1, v2)"),
        (ctx.ideal((2, ()), (0, (1,)), (3, (0, 2, 1))), "(p^2, v1, p^3*v2^2*v3)"),
        (FGAbelianGroup(), "0"),
        (parse_group("Z^2 + Z/5"), "Z^2 + Z/5"),
        (FGAbelianGroup(1, (4, 3)), "Z + Z/4 + Z/3"),
        (localize(FGAbelianGroup(2, (4, 3)), InvertedSet({2})), "Z[1/2]^2 + Z/3"),
        (localize(FGAbelianGroup(0, (4,)), InvertedSet({2})), "0"),
        (localize(FGAbelianGroup(1, (9,)), InvertedSet({3}, complement=True)), "Z_(3) + Z/9"),
        (TPoly.zero(ctx), "0"),
        (TensorPoly(ctx), "0"),
        (OperationCombo(ctx), "0"),
        (OperationExpr.zero(ctx), "0"),
        (
            TPoly(ctx, {(): v1 - 1, (1,): -1, (2,): 2 * v1, (0, 1): v1 + v2}),
            "-1 + v1 - t1 + 2*v1*t1^2 + (v1 + v2)*t2",
        ),
        (TPoly(ctx, {(): -1, (1,): -v1}), "-1 - v1*t1"),
        (
            TensorPoly(
                ctx,
                {
                    ((), ()): -1,
                    ((1,), ()): v1 - 3 * v2,
                    ((), (1,)): 1,
                    ((1,), (0, 1)): -7 * v1,
                },
            ),
            "-1(x)1 + 1(x)t1 + (v1 - 3*v2)*t1(x)1 - 7*v1*t1(x)t2",
        ),
        (
            OperationCombo(ctx, {(): 1, (1,): -1, (7,): v1 + v2, (0, 1): -2 * v1}),
            "R[0] - R[1] + (v1 + v2)*R[7] - 2*v1*R[0,1]",
        ),
        (
            OperationExpr(
                ctx,
                (
                    (F(3, 2), ((1,),)),
                    (F(-1), ((7,), (1,))),
                    (F(-2, 3), ((0, 1),)),
                    (1, ()),
                ),
            ),
            "3/2*R[1] - R[7]R[1] - 2/3*R[0,1] + R[0]",
        ),
    ]


def test_printed_forms(ctx7):
    for value, printed in _printed_values(ctx7):
        assert str(value) == printed


def test_printed_forms_parse_back(ctx7):
    from bpcalc.grading import parse_poly

    for value, printed in _printed_values(ctx7):
        if isinstance(value, Poly):
            assert parse_poly(printed, value.alphabet) == value


def test_binomial_expansion_in_diagonal(ctx7):
    # right-factor t1^p coefficient of psi(t1^(p+1)) is (p+1) t1
    p = ctx7.prime
    diag = psi(TPoly(ctx7, {(p + 1,): 1}))
    assert diag.coeff((1,), (p,)) == p + 1
