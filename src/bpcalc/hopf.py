"""The BP Hopf algebroid at an odd prime.

BP_*(BP) = pi_*(BP)[t_1, t_2, ...] with deg t_i = 2(p^i - 1).  The diagonal
psi is computed by solving

    sum_{i+j=k} m_i (psi t_j)^(p^i)
        = sum_{h+i+j=k} m_h t_i^(p^h) (x) t_j^(p^(h+i))     (t_0 = m_0 = 1)

recursively over Z[m] -- every coefficient the recursion produces is an
integer polynomial in the m_i -- as flat int tables under packed keys
(m-exponents, then the left and the right t-exponents), changed to the
integral v-basis once per t_k by one exact division.  psi of a t-monomial
multiplies memoized flat powers psi(t_i)^e.  The diagonal, the right unit
and the Cartan side all compute in that one form, flat tables {packed int
key: coefficient} (``_Flat``); ``_by_t`` is the one edge where a table is
decoded into the tuple-keyed TPoly, TensorPoly and Poly values that callers
and the pairing read.  The dual operations R_I are indexed by finite
sequences (i_1, ..., i_n), R_I dual to t_1^(i_1)...t_n^(i_n) under the
left-linear Kronecker pairing <R_I, t^J> = delta_IJ.

Conventions (validated wholesale by verify_lemma_7_1):
  * coefficients live on the LEFT tensor factor;
  * the composition product evaluates <ab, x> = sum_i <a, e_i <b, x_i>>
    with <b, x_i> multiplied into the left coefficient of e_i through the
    right unit; ``pair_word`` is the one composite pairing, and
    ``OperationExpr.in_basis`` expands a sum of words in the dual basis
    from its values;
  * all Koszul signs are +1 -- every generator degree 2(p^i - 1) is even.

The action of R_I on the coefficient ring is computed two independent ways:
via the Cartan formula from the base values on the m-generators, and as the
t^I-coefficient of the right unit eta_R; their agreement is a standing
cross-check.  One R_I(x) on the Cartan side has one path,
``OperationExpr.act`` (``r_action`` is the one-letter word); the full tables
of every R_I(x) (``r_action_table`` and the cross-check) come from
``_cartan_flat``.  Both apply the same m-side step, ``_cartan_m``, to
terms under packed m-keys, as ``_v_to_m_flat`` leaves them.

The right unit is a ring homomorphism, so ``eta_r`` multiplies memoized
powers of the generator images eta_R(v_i), flat int tables in the integral
v-basis.  They come from the flat m-basis right unit
(``_eta_r_m_generator``) on the integral Hazewinkel expansions of v_i in
the m-basis (``_v_in_m_flat``), changed back to the v-basis by one exact
division.  The coherence sweep walks each v1-chain v1^a m upward, one
2-term product per monomial, and carries N(x) = -p^K eta_R(x) (K =
deg(x)/q, so K(v1 x) = K(x) + 1) rather than eta_R(x): N(v1^a m) = p
eta_R(v1) * N(v1^(a-1) m), and a copy of N seeds the table the Cartan side
adds into.  The Cartan side is not chained: it runs its own path on every
monomial, on flat int tables of its own (m-exponents and J in one key): the
change to the m-basis over the expansions v_i in the m-basis
(``_v_in_m_flat``), the Cartan tables in closed form (the multinomial
theorem on the factor actions R_(p^a e_(i-a)) m_i = m_a), then the change
back over the integral scaled generators p^i m_i in the v-basis
(``_m_in_v_scaled``), undivided: p^K R_J(x) + N(x) = 0 makes R_J(x)
integral, as eta_R(x) is a product of generator images divided exactly and
checked.  Only a failing monomial's N is divided by -p^K, for its witness.
Both basis changes, with their generator tables built by the Hazewinkel
recursions over Z, are ``grading``'s one implementation, which
``Context.to_m_basis``/``to_v_basis`` run on too.  The Cartan side must
not be made multiplicative in the v-basis: the Cartan formula is exactly
the multiplicativity of eta_R, so the cross-check would then compare one
computation with itself.
For the same reason the right unit's eta_R(m_i) are written out on their
own, not read from the Cartan side's factor actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .arith import padic_valuation
from .errors import (
    AlphabetError,
    DegreeError,
    TruncationError,
)
from .grading import (
    _FIELD_BITS,
    _T_SHIFT,
    _V_MASK,
    HAZEWINKEL_MAX_INDEX,
    Context,
    Poly,
    Sparse,
    SparseRing,
    _Flat,
    _flat_image,
    _format_mono,
    _gen,
    _join_signed,
    _key_bound,
    _m_to_v_flat,
    _m_to_v_into,
    _num,
    _term,
    _trim,
    _unpack,
    _v_in_m_flat,
    _v_to_m_flat,
    add_exps,
    add_term,
    format_poly,
    memoized,
    monomials_up_to,
    single_degree,
)
from .report import Report

# ---------------------------------------------------------------------------
# Operation indices
# ---------------------------------------------------------------------------


def format_opindex(idx: tuple) -> str:
    if not idx:
        return "R[0]"
    return "R[" + ",".join(str(i) for i in idx) + "]"


def format_word(word) -> str:
    return "".join(format_opindex(i) for i in word) if word else "R[0]"


# ---------------------------------------------------------------------------
# Values with coefficients in the coefficient ring
# ---------------------------------------------------------------------------


def _coeff_alphabet(x):
    """The alphabet of x's coefficients: the v-alphabet when x is zero."""
    return next(iter(x.terms.values())).alphabet if x.terms else x.ctx.V


class _Coeffs(Sparse):
    """Finite mapping key -> nonzero coefficient Poly under one context: the
    value layer of TPoly, TensorPoly and OperationCombo.  A subclass
    supplies its key normal form ``_key``, the key of 1 ``_unit_key``, its
    print order ``_order`` and the printed body of a key ``_body``; the
    defaults are those of keys that are one exponent tuple of the t-alphabet."""

    __slots__ = ("ctx",)
    _scalars = (int, Fraction, Poly)
    _key = staticmethod(_trim)
    _unit_key = ()

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = {}
        for k, c in (terms or {}).items():
            add_term(
                clean,
                self._key(k),
                c if isinstance(c, Poly) else Poly.constant(ctx.V, c),
            )
        self.terms = clean

    @classmethod
    def _raw(cls, ctx, terms):
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        return out

    def _like(self, terms):
        return self._raw(self.ctx, terms)

    @classmethod
    def zero(cls, ctx):
        return cls._raw(ctx, {})

    @classmethod
    def unit(cls, ctx, coeff_alphabet=None):
        """1 at ``_unit_key`` over coeff_alphabet (default the v-alphabet)."""
        return cls._raw(ctx, {cls._unit_key: Poly.constant(coeff_alphabet or ctx.V, 1)})

    def _one(self):
        return self.unit(self.ctx, _coeff_alphabet(self))

    def coeff(self, exps) -> Poly:
        got = self.terms.get(self._key(exps))
        return got if got is not None else Poly.zero(_coeff_alphabet(self))

    def __eq__(self, other):
        return (
            other.__class__ is self.__class__
            and self.ctx.prime == other.ctx.prime
            and self.terms == other.terms
        )

    def _order(self, key):
        return (self.ctx.T.degree_of(key), key)

    def _body(self, key):
        return _format_mono("t", key)

    def __str__(self):
        parts = (
            _term(format_poly(self.terms[k]), self._body(k))
            for k in sorted(self.terms, key=self._order)
        )
        return _join_signed(parts) or "0"


class TPoly(_Coeffs, SparseRing):
    """Element of BP_*(BP): finite mapping t-monomial -> left coefficient."""

    __slots__ = ()


def _add_exp_pairs(k1, k2) -> tuple:
    """Product key rule of the tensor square: add left and right exponents."""
    return (add_exps(k1[0], k2[0]), add_exps(k1[1], k2[1]))


class TensorPoly(_Coeffs, SparseRing):
    """Element of BP_*(BP) (x) BP_*(BP), coefficients on the left factor.

    Keyed by (left exponents, right exponents).  A sibling of TPoly, not a
    subclass, so the two never multiply into each other by accident.
    """

    __slots__ = ()
    _add_keys = staticmethod(_add_exp_pairs)
    _unit_key = ((), ())

    @staticmethod
    def _key(key):
        return (_trim(key[0]), _trim(key[1]))

    def coeff(self, left_exps, right_exps) -> Poly:
        return _Coeffs.coeff(self, (left_exps, right_exps))

    def _order(self, key):
        return (self.ctx.T.degree_of(key[0]) + self.ctx.T.degree_of(key[1]), key)

    def _body(self, key):
        return f"{_format_mono('t', key[0])}(x){_format_mono('t', key[1])}"


# ---------------------------------------------------------------------------
# Flat tables under packed-int keys
# ---------------------------------------------------------------------------

# On the packed keys of ``grading``, from ``_T_SHIFT`` up: t1..t3 in the right
# unit, J in the Cartan tables, one block of t1..tN (``_block``) per factor.


def _block(ctx: Context) -> int:
    """Bits of one tensor factor's t-exponents t1..tN."""
    return _FIELD_BITS * ctx.truncation


def _t_blocks(ctx: Context, tkey: int, n: int) -> tuple:
    """The n t-exponent tuples of a key's t-part (key >> _T_SHIFT)."""
    width = _block(ctx)
    mask = (1 << width) - 1
    return tuple(_unpack(tkey >> width * b & mask) for b in range(n))


def _by_t(flat: _Flat, alphabet, t_of=_unpack) -> dict:
    """{t_of(t-part of the key): Poly over alphabet from the low fields}:
    the one place a flat table is decoded into tuple-keyed values."""
    by_t = {}
    for k, c in flat.terms.items():
        by_t.setdefault(k >> _T_SHIFT, {})[_unpack(k & _V_MASK)] = c
    return {t_of(tk): Poly._raw(alphabet, vt) for tk, vt in by_t.items()}


# ---------------------------------------------------------------------------
# The diagonal
# ---------------------------------------------------------------------------


@memoized
def _psi_t_m(ctx: Context, k: int) -> _Flat:
    """psi t_k over Z[m] as a flat table: m1..m3 in the low fields, the
    left t-exponents in the first block from ``_T_SHIFT`` up, the right
    ones in the second.  The recursion's coefficients are all integers.
    ``_psi_t_v`` checks k and bounds the exponents first."""
    p, right = ctx.prime, _T_SHIFT + _block(ctx)
    # right-hand side sum over h+i+j = k; the (h,i,j)=(k,0,0) term cancels
    # against the i=k term of the left-hand side and both are omitted.
    rhs = {}
    for h in range(0, k + 1):
        for i in range(0, k - h + 1):
            j = k - h - i
            if i or j:
                rhs[_gen(h) + _gen(i, p**h, _T_SHIFT) + _gen(j, p ** (h + i), right)] = 1
    out = _Flat(rhs)
    for i in range(1, k):
        out = out - _Flat({_gen(i): 1}) * _psi_t_m(ctx, k - i) ** (p**i)
    return out


@memoized
def _psi_t_v(ctx: Context, k: int) -> _Flat:
    """psi t_k in the integral v-basis, as a flat table in the layout of
    ``_psi_t_m`` with v1..v3 in the low fields.  The integrality, degree
    and both counit checks run here, so every user of the diagonal reads a
    checked table."""
    if not 1 <= k <= ctx.truncation:
        raise TruncationError(f"psi t_{k} outside truncation N={ctx.truncation}")
    if k > HAZEWINKEL_MAX_INDEX + 1:
        raise TruncationError(
            f"psi t_{k} needs m{k - 1}; the Hazewinkel relations stop at "
            f"m{HAZEWINKEL_MAX_INDEX}"
        )

    def where(tk):
        return f"psi t_{k}: non-integral coefficient at {_t_blocks(ctx, tk, 2)}"

    # every exponent of every term of psi t_k, and of the powers of psi t_j
    # (j < k) that build it, is at most deg(t_k)/q = 1 + p + ... + p^(k-1)
    K = _key_bound(ctx, Poly.gen(ctx.T, k), f"psi t_{k}")
    table = _m_to_v_flat(ctx, _psi_t_m(ctx, k).terms, K, where)
    V, T, degree = ctx.V, ctx.T, ctx.T.gen_degree(k)
    for key in table.terms:
        le, re = _t_blocks(ctx, key >> _T_SHIFT, 2)
        v_degree = V.degree_of(_unpack(key & _V_MASK))
        if v_degree + T.degree_of(le) + T.degree_of(re) != degree:
            raise DegreeError(f"psi t_{k}: degree drift at {(le, re)}")
    # counits: the terms with one factor 1 are t_k (x) 1 and 1 (x) t_k alone
    width, t_k = _block(ctx), _gen(k, 1, _T_SHIFT)
    block, terms = (1 << width) - 1, table.terms.items()
    for side, (one, expect) in enumerate(((width, t_k), (0, t_k << width))):
        edge = {key: c for key, c in terms if not key >> _T_SHIFT + one & block}
        if edge != {expect: 1}:
            raise ValueError(f"psi t_{k}: counit check failed on side {side}")
    return table


def _to_tensor(ctx: Context, flat: _Flat) -> TensorPoly:
    """A flat tensor table decoded into a TensorPoly, the t-part split into
    its left and right blocks."""
    return TensorPoly._raw(ctx, _by_t(flat, ctx.V, lambda tk: _t_blocks(ctx, tk, 2)))


def psi_t(ctx: Context, k: int) -> TensorPoly:
    """The diagonal on t_k, coefficients in the integral v-basis.

    The checked flat table ``_psi_t_v`` (built over Z[m] by
    ``_psi_t_m``, then changed to the v-basis once) unpacked into a
    TensorPoly.  Passes integrality, homogeneity and both counit
    identities; ExponentOverflowError before any arithmetic when
    1 + p + ... + p^(k-1) passes the key field.
    """
    return _to_tensor(ctx, _psi_t_v(ctx, k))


@memoized
def _psi_flat(ctx: Context, exps: tuple) -> _Flat:
    """Flat psi of the t-monomial t^exps: the product of the memoized flat
    powers psi(t_i)^e (``memo_power`` over ``_psi_t_v``)."""
    return _flat_image(ctx, Poly._raw(ctx.T, {exps: 1}), _psi_t_v, "psi")


@memoized
def _psi_by_left(ctx: Context, exps: tuple) -> dict:
    """psi of the t-monomial t^exps grouped by left factor, {le: ((re, c),
    ...)} for the terms c t^le (x) t^re, c a v-Poly: the one decoded form of
    ``_psi_flat``, which ``pair_word`` reads by left factor."""
    width = _block(ctx)
    grouped = {}
    for tk, c in _by_t(_psi_flat(ctx, exps), ctx.V, lambda tk: tk).items():
        le = _unpack(tk & (1 << width) - 1)
        grouped.setdefault(le, []).append((_unpack(tk >> width), c))
    return {le: tuple(rows) for le, rows in grouped.items()}


def psi_monomial(ctx: Context, exps: tuple) -> TensorPoly:
    """psi of the t-monomial with the given exponents: the flat product of
    memoized powers psi(t_i)^e (``_psi_flat``), decoded from its grouped
    table (``_psi_by_left``)."""
    rows = _psi_by_left(ctx, exps).items()
    return TensorPoly._raw(ctx, {(le, re): c for le, rs in rows for re, c in rs})


def coassociativity_check(ctx: Context, k: int) -> bool:
    """(psi (x) 1) psi t_k == (1 (x) psi) psi t_k.

    Both sides are flat triples: v1..v3 in the low fields, then one block
    of t-exponents per factor, from the memoized flat images ``_psi_flat``.
    Coefficients are pulled to the far left; a coefficient produced in the
    right factor crosses the middle one through the right unit, as the
    memoized flat image ``_eta_flat`` of its v-monomial.
    """
    mid = _T_SHIFT + _block(ctx)
    right = mid + _block(ctx)
    triple_l, triple_r = {}, {}
    for key, c in _psi_t_v(ctx, k).terms.items():
        le, re = _t_blocks(ctx, key >> _T_SHIFT, 2)
        # c v t^le (x) t^re -> c v psi(t^le) (x) t^re
        shift = (key & _V_MASK) + (key >> mid << right)
        for k1, d in _psi_flat(ctx, le).terms.items():
            k1 += shift
            triple_l[k1] = triple_l.get(k1, 0) + c * d
        # c v t^le (x) d w t^a (x) t^b -> c d v (t^le . eta_R(w)) (x) t^a (x) t^b
        base = key & (1 << mid) - 1
        for k2, d in _psi_flat(ctx, re).terms.items():
            k2, eta = base + (k2 >> _T_SHIFT << mid), _eta_flat(ctx, k2 & _V_MASK)
            for k3, e in eta.terms.items():
                k3 += k2
                triple_r[k3] = triple_r.get(k3, 0) + c * d * e
    nonzero = lambda terms: {t: c for t, c in terms.items() if c}
    return nonzero(triple_l) == nonzero(triple_r)


# ---------------------------------------------------------------------------
# Right unit
# ---------------------------------------------------------------------------


@memoized
def _eta_r_m_generator(ctx: Context, i: int) -> _Flat:
    """Flat eta_R(m_i) = sum_{a+b=i} m_a t_b^(p^a), m-exponents in the low
    fields and t from ``_T_SHIFT`` up.  Written out here rather than read
    from the Cartan side's ``_factor_actions``, so that the coherence
    cross-check does not compare one table with itself."""
    p = ctx.prime
    return _Flat({_gen(a) + _gen(i - a, p**a, _T_SHIFT): 1 for a in range(i + 1)})


@memoized
def _eta_v_generator(ctx: Context, i: int) -> _Flat:
    """Flat eta_R(v_i): the flat m-basis right unit of the Hazewinkel
    expansion of v_i in the m-basis (``_v_in_m_flat``, integer
    coefficients), changed back to the v-basis by one exact division
    (``_m_to_v_flat``)."""

    def where(tk):
        return f"eta_r(v{i}): non-integral coefficient at t^{_unpack(tk)}"

    x = Poly._raw(ctx.M, {_unpack(k): c for k, c in _v_in_m_flat(ctx, i).terms.items()})
    flat = _flat_image(ctx, x, _eta_r_m_generator, f"eta_r(v{i})")
    K = _key_bound(ctx, x, f"eta_r(v{i})")
    return _m_to_v_flat(ctx, flat.terms, K, where)


def _eta_r_flat(ctx: Context, x: Poly) -> _Flat:
    """Flat eta_R(x) for a v-polynomial: v-exponents in the low fields, t
    from ``_T_SHIFT`` up (``_flat_image`` over ``_eta_v_generator``)."""
    return _flat_image(ctx, x, _eta_v_generator, "eta_r")


@memoized
def _eta_flat(ctx: Context, key: int) -> _Flat:
    """Flat eta_R of the packed v-monomial: the product of memoized flat
    powers eta_R(v_i)^e (``memo_power`` over ``_eta_v_generator``)."""
    return _eta_r_flat(ctx, Poly._raw(ctx.V, {_unpack(key): 1}))


def eta_r(ctx: Context, x: Poly) -> TPoly:
    """Right unit on an integral v-polynomial, coefficients in the v-basis.

    eta_R is a ring homomorphism, so eta_R(x) = sum c * prod_i
    eta_R(v_i)^(a_i) over the terms c * v^a of x: the flat core
    ``_eta_r_flat`` (memoized flat powers with int coefficients), checked
    for integrality here and unpacked into a TPoly.  Every term of
    eta_R(v^a) has degree deg(v^a), so no exponent exceeds deg(v^a)/q; a
    monomial for which that bound passes the field width raises
    ExponentOverflowError before any arithmetic.

    The coefficient of t^I equals r_action(I, x) for every I; that standing
    cross-check stays independent because the Cartan side never uses this
    multiplicativity (see the module docstring).
    """
    if x.alphabet != ctx.V:
        raise AlphabetError("eta_r expects a v-polynomial")
    acc = _eta_r_flat(ctx, x)
    for k, c in acc.terms.items():
        # the images have int coefficients, so only a non-int input
        # coefficient can leave a p in a denominator
        if c.__class__ is not int and padic_valuation(c, ctx.prime) < 0:
            raise ValueError(
                f"eta_r: non-integral coefficient at t^{_unpack(k >> _T_SHIFT)}"
            )
    return TPoly._raw(ctx, _by_t(acc, ctx.V))


# ---------------------------------------------------------------------------
# Cartan action on the coefficient ring
# ---------------------------------------------------------------------------


@memoized
def _factor_actions(ctx: Context, i: int) -> list:
    """The keys of the nonzero R_J m_i, each with coefficient 1: R_0 m_i = m_i
    first, then R_J m_i = m_a for J = p^a in place i - a, a = 0, ..., i - 1;
    a key packs m_a in the low fields and J from ``_T_SHIFT`` up."""
    p = ctx.prime
    return [_gen(i)] + [_gen(a) + _gen(i - a, p**a, _T_SHIFT) for a in range(i)]


def _mono_action_table(ctx: Context, exps) -> dict:
    """Every R_J value on m1^a1 m2^a2 m3^a3 by the Cartan formula in closed
    form, as a flat table {m-key + J << _T_SHIFT: int} memoized per monomial
    in ``ctx.memo["rtable"]``: the monomial's table without its top power
    m_i^n times the J-parts of (m_i + sum_(a<i) m_a t_(i-a)^(p^a))^n, where
    k_b of the n factors take the b-th of ``_factor_actions`` with count
    n!/(k_0!...k_i!).  Count vectors may share a key.  Callers bound the
    exponents first (``_key_bound``)."""
    exps, full = _trim(exps), ctx.memo["rtable"]
    if not exps:
        return full.setdefault((), {0: 1})
    if exps not in full:
        rest, n = _mono_action_table(ctx, exps[:-1]), exps[-1]
        unit, *moves = _factor_actions(ctx, len(exps))
        power = [(n * unit, 1, n)]  # (key, count, factors left)
        for d in (key - unit for key in moves):
            power = [(k + j * d, c * comb(r, j), r - j)
                     for k, c, r in power for j in range(r + 1)]
        table = {}
        get = table.get
        for k2, c2, _ in power:
            for k, c in rest.items():
                table[k + k2] = get(k + k2, 0) + c * c2
        full[exps] = table
    return full[exps]


def _m_terms(ctx: Context, x: Poly):
    """The (packed m-key, coefficient) terms of the v-polynomial x in the
    rational m-basis, through the one flat v -> m change (``_v_to_m_flat``):
    another alphabet raises AlphabetError and a term in v4 or above
    TruncationError, both naming r_action and before any arithmetic."""
    return _v_to_m_flat(ctx, x, "r_action").terms.items()


def _index_splits(ctx: Context, index: tuple, bound: tuple) -> list:
    """The ways the index J = (j1, j2, j3) splits among the factor actions
    (``_factor_actions``) of at most bound = (A1, A2, A3) factors m1, m2,
    m3, as (n1, n2, n3, w, offset): n_i factors m_i act (the rest take
    R_0), in w orders, and shift the key by offset.  Place 3 fixes m3's
    count there; each lower place b splits among the m_i, i > b, reaching
    it (step p^(i-b)), and m_b takes the rest."""
    (j1, j2, j3), (A1, A2, A3) = index, bound
    fa, p = _factor_actions, ctx.prime
    (u1, x11), (u2, x22, x21), (u3, x33, x32, x31) = fa(ctx, 1), fa(ctx, 2), fa(ctx, 3)
    d11, d21, d22, d31, d32 = x11 - u1, x21 - u2, x22 - u2, x31 - u3, x32 - u3
    pp, top, splits = p * p, j3 * (x33 - u3), []
    # place 2: k32 factors of m3 (step p), k22 = j2 - p k32 of m2 (step 1)
    for k32 in range(max(0, -((A2 - j2) // p)), min(A3 - j3, j2 // p) + 1):
        k22 = j2 - p * k32
        w32, key32 = comb(j3 + k32, k32), top + k32 * d32 + k22 * d22
        # place 1: k31 of m3 (step p^2), k21 of m2 (step p), the rest of m1
        for k31 in range(min(A3 - j3 - k32, j1 // pp) + 1):
            n3, rest = j3 + k32 + k31, j1 - pp * k31
            w31, key31 = w32 * comb(n3, k31), key32 + k31 * d31
            for k21 in range(max(0, -((A1 - rest) // p)), min(A2 - k22, rest // p) + 1):
                k11, n2 = rest - p * k21, k22 + k21
                splits.append((k11, n2, n3, w31 * comb(n2, k21), key31 + k21 * d21 + k11 * d11))
    return splits


def _cartan_m(ctx: Context, terms, cap=None) -> dict:
    """R_J of the (packed m-key, coefficient) terms for every J (their
    ``_mono_action_table``s) or for J = cap only, as {m-key + J << _T_SHIFT:
    coefficient}, zeros kept.  One index: the same closed form, no memo and
    no table per term.  J's splits (``_index_splits``) are enumerated once
    per call, bounded by the largest m1, m2, m3 exponents among the terms,
    and each term m1^a1 m2^a2 m3^a3 takes every split with n_i <= a_i, with
    count w C(a1, n1) C(a2, n2) C(a3, n3).  The caller checks cap against
    the truncation."""
    acc = {}
    get = acc.get
    if cap is None:
        for key, c in terms:
            for k, n in _mono_action_table(ctx, _unpack(key)).items():
                acc[k] = get(k, 0) + c * n
        return acc
    if any(cap[HAZEWINKEL_MAX_INDEX:]):
        return acc  # J reaches no place past 3
    # the m-key is a1 u1 + a2 u2 + a3 u3
    mask, shift2 = (1 << _FIELD_BITS) - 1, 2 * _FIELD_BITS
    rows, A1, A2, A3 = [], 0, 0, 0
    for key, c in terms:
        a1, a2, a3 = key & mask, key >> _FIELD_BITS & mask, key >> shift2
        rows.append((key, c, a1, a2, a3))
        if a1 > A1:
            A1 = a1
        if a2 > A2:
            A2 = a2
        if a3 > A3:
            A3 = a3
    splits = _index_splits(ctx, (cap + (0, 0, 0))[:3], (A1, A2, A3))
    for key, c, a1, a2, a3 in rows:
        for n1, n2, n3, w, offset in splits:
            if n1 <= a1 and n2 <= a2 and n3 <= a3:
                k = key + offset
                acc[k] = get(k, 0) + c * (w * comb(a1, n1) * comb(a2, n2) * comb(a3, n3))
    return acc


def _cartan_scaled(ctx: Context, x: Poly, K: int, into: dict) -> dict:
    """p^K ``_cartan_flat`` (K: x's ``_key_bound``) undivided, added into ``into``."""
    return _m_to_v_into(ctx, _cartan_m(ctx, _m_terms(ctx, x)), K, into)


def _cartan_flat(ctx: Context, x: Poly) -> _Flat:
    """``_cartan_m`` for every J on the m-basis terms of x (``_m_terms``),
    back in the v-basis by one exact division (``_m_to_v_flat``), J from
    ``_T_SHIFT`` up: ``_cartan_scaled`` over p^K.  A p left in a
    denominator is a non-integral R_J(x): ValueError."""
    K = _key_bound(ctx, x, "r_action")
    acc = _cartan_m(ctx, _m_terms(ctx, x))
    where = "r_action: non-integral value at index {}".format
    return _m_to_v_flat(ctx, acc, K, lambda jk: where(_unpack(jk)))


def r_action_table(ctx: Context, x: Poly) -> dict:
    """All nonzero R_I(x) for a v-polynomial, as {index: integral v-Poly},
    from the full flat Cartan tables (``_cartan_flat``, decoded).  Raises
    ValueError on a non-integral value, and ExponentOverflowError before any
    arithmetic when an exponent could pass the key field."""
    return _by_t(_cartan_flat(ctx, x), ctx.V)


def r_action(ctx: Context, index, x: Poly) -> Poly:
    """R_I acting on the coefficient ring (additive, Cartan multiplicative):
    the one-letter word R_I acting on x (``OperationExpr.act``), so errors
    are as in ``r_action_table``, except that only a non-integral R_I(x)
    raises ValueError: R_1(v1/p) = 1, though R_0(v1/p) is not integral."""
    return OperationExpr.word(ctx, index).act(x)


# ---------------------------------------------------------------------------
# Operations, pairing, composition
# ---------------------------------------------------------------------------


class OperationCombo(_Coeffs):
    """Finite left-coefficient combination of dual operations R_I:
    index -> coefficient Poly over V; the value of ``OperationExpr.in_basis``."""

    __slots__ = ()

    @classmethod
    def basis(cls, ctx, *index):
        return cls(ctx, {index: 1})  # the key normal form trims the index

    def _body(self, idx):
        return format_opindex(idx)


@memoized
def _eta_r_cached(ctx: Context, x: Poly) -> TPoly:
    """eta_r(x), memoized under x: the inner values of the nested pairing."""
    return eta_r(ctx, x)


@memoized
def _head_splits(ctx: Context, head: tuple) -> tuple:
    """The pairs (le, head - le), both trimmed, over the divisors le of the
    t-monomial head: where ``pair_word`` looks in the grouped diagonal."""
    return tuple(
        (_trim(le), _trim(tuple(h - e for h, e in zip(head, le))))
        for le in product(*(range(h + 1) for h in head))
    )


@memoized
def pair_word(ctx: Context, word: tuple, exps: tuple) -> Poly:
    """<R_(w1) R_(w2) ... , t^exps> by nested evaluation of the diagonal.

    The one-letter word pairs by the dual basis.  A longer word sums, over
    psi t^exps = sum c t^le (x) t^re, c times the t^(w1 - le)-coefficient of
    eta_R(<tail, t^re>): the inner value multiplies the left factor through
    the right unit, so the nested evaluation is associative (see the
    associativity checks).  Only a left factor le dividing w1 contributes,
    so the sum visits the divisors of w1 (``_head_splits``) and reads their
    rows of the grouped diagonal (``_psi_by_left``).  A scalar inner value
    crosses as itself, so only le = w1 takes it.  Signs are all +1: every
    generator degree 2(p^i - 1) is even.
    """
    word = tuple(_trim(w) for w in word) or ((),)  # the empty word is R[0]
    exps, head, rest = _trim(exps), word[0], word[1:]
    if not rest:
        return Poly.constant(ctx.V, 1 if exps == head else 0)
    acc = Poly.zero(ctx.V)
    by_left = _psi_by_left(ctx, exps)
    for le, u in _head_splits(ctx, head):
        rows = by_left.get(le)
        if rows is None:
            continue
        for re, c in rows:
            value = pair_word(ctx, rest, re)
            if not value:
                continue
            if value.terms.keys() == {()}:
                if not u:
                    acc = acc + c * value
                continue
            d = _eta_r_cached(ctx, value).terms.get(u)
            if d is not None:
                acc = acc + c * d
    return acc


# ---------------------------------------------------------------------------
# Operation expressions: integer combinations of composition words
# ---------------------------------------------------------------------------


@dataclass
class OperationExpr:
    """Formal sum of scalar * (composition word of indices).

    Words act on module coefficients sequentially (rightmost letter first)
    and pair against co-operations by nested evaluation of the diagonal.
    """

    ctx: Context
    parts: tuple = ()  # ((scalar, word), ...)

    @classmethod
    def word(cls, ctx, *indices, scalar=1):
        w = tuple(_trim(tuple(i)) for i in indices)
        return cls(ctx, ((scalar, w),))

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    def __add__(self, other):
        return OperationExpr(self.ctx, self.parts + other.parts)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return OperationExpr(self.ctx, tuple((s * c, w) for s, w in self.parts))

    def compose(self, other):
        """Concatenate words: (self . other), self applied after other."""
        parts = []
        for s1, w1 in self.parts:
            for s2, w2 in other.parts:
                parts.append((s1 * s2, w1 + w2))
        return OperationExpr(self.ctx, tuple(parts))

    def degree(self):
        return single_degree(
            (sum(self.ctx.T.degree_of(i) for i in w) for _, w in self.parts),
            "mixed word degrees",
        )

    def indices_positive(self) -> bool:
        """Grading guard: every non-identity letter raises degree."""
        return all(
            self.ctx.T.degree_of(i) > 0
            for _, w in self.parts
            for i in w
            if i != ()
        )

    def act(self, x: Poly) -> Poly:
        """The value on x, a v-polynomial (``_m_terms``' contract): x goes
        to the m-basis once, each word acts right-to-left on its terms under
        packed m-keys (``_cartan_m``), and the sum of s * D times each word
        (D = p^k clears every p in a scalar's denominator) comes back once
        (``_m_to_v_flat``), over D: only that value must be integral, else
        ValueError.  Terms whose sum is 0, as all of a relation's are, are
        dropped before the change back.  Identity words add x times the sum
        of their scalars, after the same input check as every other word.
        Every letter is checked against the truncation before any
        arithmetic, so a word whose value is 0 before it reaches a bad
        letter still raises TruncationError."""
        ctx, p = self.ctx, self.ctx.prime
        bad = [i for _, w in self.parts for i in w if len(i) > ctx.truncation]
        if bad:
            raise TruncationError(f"operation index {bad[0]} outside truncation")
        words = [(s, w) for s, w in self.parts if any(w)]
        same = sum(s for s, w in self.parts if not any(w))  # identity words
        D = p ** max((padic_valuation(s.denominator, p) for s, _ in words), default=0)
        K, m, acc = _key_bound(ctx, x, "r_action"), _m_terms(ctx, x), {}
        get = acc.get
        for s, word in words:
            terms = m
            for idx in reversed(word):
                if idx:
                    step = _cartan_m(ctx, terms, idx).items()
                    terms = [(k & _V_MASK, c) for k, c in step if c]
                if not terms:
                    break
            sD = _num(s * D)
            for k, c in terms:
                acc[k] = get(k, 0) + c * sD
        acc = {k: c for k, c in acc.items() if c}
        flat = _m_to_v_flat(ctx, acc, K, lambda _: f"non-integral value of {self}")
        value = _by_t(flat, ctx.V).get((), Poly.zero(ctx.V))
        if D > 1:
            value = value.scale(Fraction(1, D))
        return value + x.scale(same) if same else value

    def pair_monomial(self, exps) -> Poly:
        acc = {}
        for scalar, word in self.parts:
            for e, c in pair_word(self.ctx, word, exps).terms.items():
                add_term(acc, e, scalar * c)
        return Poly._raw(self.ctx.V, acc)

    def in_basis(self, degree_bound: int) -> OperationCombo:
        """The dual-basis expansion sum_J <self, t^J> R_J, exact for every
        index of degree <= degree_bound (homotopy degree)."""
        monos = monomials_up_to(degree_bound, self.ctx.T)
        return OperationCombo(self.ctx, {m.exps: self.pair_monomial(m.exps) for m in monos})

    def __str__(self):
        parts = (_term(str(s), format_word(w)) for s, w in self.parts)
        return _join_signed(parts) or "0"


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------


def commutator_relations(ctx: Context):
    """The three commutator identities and the two derived triple identities."""
    p = ctx.prime
    r1, rp, r01 = (1,), (p,), (0, 1)
    E = OperationExpr.word
    return [
        (
            "R[1]R[p] - R[p]R[1] = R[0,1]",
            E(ctx, r1, rp) - E(ctx, rp, r1) - E(ctx, r01),
        ),
        (
            "R[1]R[0,1] - R[0,1]R[1] = 0",
            E(ctx, r1, r01) - E(ctx, r01, r1),
        ),
        (
            "R[p]R[0,1] - R[0,1]R[p] = 0",
            E(ctx, rp, r01) - E(ctx, r01, rp),
        ),
        (
            "R[p]R[1]R[1] - 2 R[1]R[p]R[1] + R[1]R[1]R[p] = 0",
            E(ctx, rp, r1, r1) - E(ctx, r1, rp, r1).scale(2) + E(ctx, r1, r1, rp),
        ),
        (
            "R[p]R[p]R[1] - 2 R[p]R[1]R[p] + R[1]R[p]R[p] = 0",
            E(ctx, rp, rp, r1) - E(ctx, rp, r1, rp).scale(2) + E(ctx, r1, rp, rp),
        ),
    ]


def recomputed_pairing_table(ctx: Context) -> list:
    """The pairing values <ab, t^J> for the word pairs used to prove the
    commutator identities, recomputed from the diagonal.

    Returned as (word label, monomial label, value string) triples.
    Circulating tabulations of these values do not match direct computation
    under any column labeling (an entry p+1 appears under a column whose
    degree forbids it), so recomputed values are emitted, never asserted.
    """
    p = ctx.prime
    rows = [
        ("R[1]R[p]", ((1,), (p,))),
        ("R[p]R[1]", ((p,), (1,))),
        ("R[1]R[0,1]", ((1,), (0, 1))),
        ("R[0,1]R[1]", ((0, 1), (1,))),
        ("R[p]R[0,1]", ((p,), (0, 1))),
        ("R[0,1]R[p]", ((0, 1), (p,))),
    ]
    cols = [
        ("t1", (1,)),
        ("t2", (0, 1)),
        ("t1^(p+1)", (p + 1,)),
        ("t1*t2", (1, 1)),
        ("t1^p*t2", (p, 1)),
        ("t1*t2^2", (1, 2)),
    ]
    table = []
    for label, word in rows:
        for clabel, exps in cols:
            value = pair_word(ctx, word, exps)
            table.append((label, clabel, format_poly(value)))
    return table


def _times_p_eta_v1(ctx: Context, neg: dict) -> dict:
    """-p^(K+1) eta_R(v1 m) from neg = -p^K eta_R(m): neg times p eta_R(v1),
    read from its memo at each call; the first term of eta_R(v1) by a
    comprehension, each further one by a merge pass that drops zero sums."""
    p = ctx.prime
    (k1, c1), *rest = _eta_v_generator(ctx, 1).terms.items()
    c1 *= p
    out = {k1 + k: c1 * c for k, c in neg.items()}
    get = out.get
    for k2, c2 in rest:
        c2 *= p
        for k, c in neg.items():
            k += k2
            c = get(k, 0) + c2 * c
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def verify_structural(ctx: Context) -> Report:
    """Structural coherence: exact basis round trip, integral diagonal for
    k <= 3, and Cartan action == right-unit coefficients on every v-monomial
    of degree <= 2(p^3 - 1), comparing the flat cores that ``eta_r`` and
    ``r_action_table`` decode, times p^K (undivided, see the module
    docstring).  Each v1-chain carries N(x) = -p^K eta_R(x) (K = deg(x)/q):
    ``_eta_r_flat`` times -p^K where a1 = 0, else N(v1^(a-1) m), which the
    (degree, exps) order reaches first, times p eta_R(v1)
    (``_times_p_eta_v1``).  A copy of N seeds the table ``_cartan_scaled``
    adds into; a monomial passes when every entry is 0.  Only a failing
    one divides N exactly by -p^K, for the ``_cartan_flat`` comparison that
    gives its witness."""
    p = ctx.prime
    report = Report(
        "structural coherence of the operation calculus",
        config={"prime": p, "truncation": ctx.truncation},
    )
    samples = [
        ctx.v(1),
        ctx.v(2),
        ctx.v(3),
        ctx.v(1) ** p * ctx.v(2) - 3 * ctx.v(3),
        (ctx.v(1) + 17) ** 3 * ctx.v(2),
    ]
    ok = all(ctx.to_v_basis(ctx.to_m_basis(x)) == x for x in samples)
    report.check(
        id="hazewinkel-round-trip",
        anchor="to_v_basis . to_m_basis = id on v-polynomials with indices <= 3",
        status=ok,
    )
    note, failed = [], []
    for k in (1, 2, 3):
        try:
            pk = psi_t(ctx, k)  # integrality/counit/degree asserted inside
        except (ValueError, DegreeError) as exc:
            failed.append(str(exc))
            continue
        note.append(f"psi t_{k}: {len(pk.terms)} terms, integral")
    report.check(
        id="psi-integral",
        anchor="every coefficient of psi t_k is p-local in the v-basis, k <= 3",
        status=not failed,
        computed="; ".join(note),
        witness="; ".join(failed),
    )
    bound = 2 * (p**3 - 1)
    mismatches = []
    checked = 0
    chains = {}  # exponents after v1 -> -p^K eta_R of the chain's latest monomial
    for mono in monomials_up_to(bound, ctx.V):
        x = Poly(ctx.V, {mono.exps: 1})
        checked += 1
        witness = str(mono)
        prev = chains.pop(mono.exps[1:], None)  # None if a1 = 0 or v1^(a-1) m failed
        try:
            K = _key_bound(ctx, x, "r_action")
            pK = -(p**K)
            if prev:
                neg = _times_p_eta_v1(ctx, prev)
            else:
                neg = {k: pK * c for k, c in _eta_r_flat(ctx, x).terms.items()}
            if mono.degree + ctx.q <= bound:  # v1 * mono is in the window
                chains[mono.exps[1:]] = neg
            table = _cartan_scaled(ctx, x, K, dict(neg))
            same = not any(table.values()) or (
                {k: c // pK for k, c in neg.items()} == _cartan_flat(ctx, x).terms
            )
        except ValueError as exc:  # a non-integral value is a mismatch
            same, witness = False, f"{mono}: {exc}"
        if not same:
            mismatches.append(witness)
            if len(mismatches) > 3:
                break
    report.check(
        id="cartan-right-unit-coherence",
        anchor="r_action(I, x) equals the t^I-coefficient of eta_r(x) for all "
        f"v-monomials of degree <= 2(p^3-1) = {bound}",
        status=not mismatches,
        computed=f"{checked} monomials checked",
        witness="; ".join(mismatches),
    )
    ok = all(coassociativity_check(ctx, k) for k in (1, 2))
    report.check(
        id="coassociativity",
        anchor="(psi (x) 1) psi t_k = (1 (x) psi) psi t_k",
        status=ok,
        computed="k <= 2 at the configured prime (k = 3 exercised in tests)",
    )
    return report


def pairing_window_q(prime: int) -> int:
    """The pairing window in units of q: 2p + 4."""
    return 2 * prime + 4


def verify_lemma_7_1(ctx: Context) -> Report:
    """Check the commutator and derived identities by pairing both sides
    against every t-monomial up to the degree window; residuals must vanish
    identically (exact arithmetic, no tolerance)."""
    bound_q = pairing_window_q(ctx.prime)
    bound = ctx.qdeg(bound_q)
    report = Report(
        "commutator relations among R[1], R[p], R[0,1]",
        config={"prime": ctx.prime, "truncation": ctx.truncation, "window_q": bound_q},
    )
    monos = monomials_up_to(bound, ctx.T)
    for name, expr in commutator_relations(ctx):
        witness = ""
        ok = True
        for mono in monos:
            residual = expr.pair_monomial(mono.exps)
            if not residual.is_zero():
                ok = False
                witness = f"t^{mono.exps}: residual {format_poly(residual)}"
                break
        report.check(
            id=f"relation[{name}]",
            anchor=name,
            status=ok,
            expected="0 on every t-monomial in the window",
            computed="all residuals zero" if ok else "nonzero residual",
            modulus=f"pairing window deg <= {bound_q}q",
            witness=witness,
        )
    # the dual-basis expansion of the first commutator is exactly R[0,1];
    # relation 1 has filled the pairing memo it reads
    r1, rp = (1,), (ctx.prime,)
    E = OperationExpr.word
    report.expect(
        "basis-expansion[R[1]R[p]-R[p]R[1]]",
        "R[1]R[p] - R[p]R[1] expands to exactly R[0,1]",
        (E(ctx, r1, rp) - E(ctx, rp, r1)).in_basis(bound),
        OperationCombo.basis(ctx, 0, 1),
        modulus=f"pairing window deg <= {bound_q}q",
    )
    table = recomputed_pairing_table(ctx)
    report.check(
        id="recomputed-pairing-table",
        anchor="pairing values <ab, t^J> recomputed from the diagonal",
        status=True,
        computed="; ".join(f"<{r},{c}>={v}" for r, c, v in table if v != "0"),
        note=(
            "emitted for documentation: circulating tabulations of these "
            "pairings are internally inconsistent (degree forbids some "
            "entries), so values are recomputed, not asserted"
        ),
    )
    return report
