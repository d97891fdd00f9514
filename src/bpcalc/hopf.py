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
and the pairing read.  The dual
operations R_I are indexed by finite sequences (i_1, ..., i_n), R_I dual
to t_1^(i_1)...t_n^(i_n) under the left-linear Kronecker pairing
<R_I, t^J> = delta_IJ.

Conventions (validated wholesale by verify_lemma_7_1):
  * coefficients live on the LEFT tensor factor;
  * the composition product evaluates <ab, x> = sum_i <a, e_i <b, x_i>>
    with <b, x_i> multiplied into the left coefficient of e_i through the
    right unit; ``compose_pair`` and the nested ``pair_word`` share that
    one step, ``_through_diagonal``;
  * all Koszul signs are +1 -- every degree in play is even (asserted).

The action of R_I on the coefficient ring is computed two independent ways:
via the Cartan formula from the base values on the m-generators, and as the
t^I-coefficient of the right unit eta_R; their agreement is a standing
cross-check.

The right unit is a ring homomorphism, so ``eta_r`` multiplies memoized
powers of the generator images eta_R(v_i) in the integral v-basis, as flat
dicts of int coefficients under packed-int keys (product key = key sum).
The generator images eta_R(v1), eta_R(v2), eta_R(v3) come from the flat
m-basis right unit (``eta_r_m`` decodes the same images) on the integral
Hazewinkel expansions ``ctx.v_in_m(i)``, changed back to the v-basis by
the same exact division.  The Cartan side stays on its own path on every
monomial: m-basis factor actions, the table recursion, then the
Hazewinkel change back to the v-basis, on flat int tables of its own
(m-exponents and J packed in one key) and p-power-scaled integral images
of ``ctx.m_to_v``, divided exactly by p^K once at the end.  It must not be
made multiplicative in the v-basis: the Cartan formula is exactly the
multiplicativity of eta_R, so the cross-check would then compare one
computation with itself.  For the same reason the right unit's
eta_R(m_i) are written out on their own, not read from the Cartan
side's factor actions.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .arith import padic_valuation
from .errors import (
    AlphabetError,
    DegreeError,
    ExponentOverflowError,
    ParseError,
    TruncationError,
)
from .grading import (
    HAZEWINKEL_MAX_INDEX,
    Context,
    Poly,
    Sparse,
    SparseRing,
    _num,
    _trim,
    add_exps,
    add_term,
    exps_divides,
    format_poly,
    memo_power,
    memoized,
    monomials_up_to,
    split_signed_terms,
)
from .report import Report

# ---------------------------------------------------------------------------
# Operation indices
# ---------------------------------------------------------------------------


def opindex(*parts) -> tuple:
    """Normalized operation index: trailing zeros trimmed."""
    return _trim(tuple(parts))


def opindex_degree(idx: tuple, ctx: Context) -> int:
    return ctx.T.degree_of(idx)


def format_opindex(idx: tuple) -> str:
    if not idx:
        return "R[0]"
    return "R[" + ",".join(str(i) for i in idx) + "]"


def format_word(word) -> str:
    return "".join(format_opindex(i) for i in word) if word else "R[0]"


# ---------------------------------------------------------------------------
# T-polynomials and tensor squares
# ---------------------------------------------------------------------------


def _coeff_alphabet(x):
    """The alphabet of x's coefficients: the v-alphabet when x is zero."""
    return next(iter(x.terms.values())).alphabet if x.terms else x.ctx.V


class TPoly(SparseRing):
    """Element of BP_*(BP): finite mapping t-monomial -> left coefficient."""

    __slots__ = ("ctx",)
    _scalars = (int, Fraction, Poly)

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = {}
        for exps, c in (terms or {}).items():
            add_term(
                clean,
                _trim(exps),
                c if isinstance(c, Poly) else Poly.constant(ctx.V, c),
            )
        self.terms = clean

    @classmethod
    def _raw(cls, ctx, terms):
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        return out

    def _like(self, terms):
        return TPoly._raw(self.ctx, terms)

    def _one(self):
        return TPoly.unit(self.ctx, _coeff_alphabet(self))

    @classmethod
    def zero(cls, ctx):
        return cls._raw(ctx, {})

    @classmethod
    def unit(cls, ctx, coeff_alphabet=None):
        alph = coeff_alphabet or ctx.V
        return cls._raw(ctx, {(): Poly.constant(alph, 1)})

    @classmethod
    def t(cls, ctx, i, power=1, coeff_alphabet=None):
        alph = coeff_alphabet or ctx.V
        if i < 1 or i > ctx.truncation:
            raise TruncationError(f"t{i} outside truncation N={ctx.truncation}")
        return cls._raw(
            ctx, {(0,) * (i - 1) + (power,): Poly.constant(alph, 1)}
        )

    @classmethod
    def monomial(cls, ctx, exps, coeff=None):
        exps = _trim(exps)
        if len(exps) > ctx.truncation:
            raise TruncationError("t-monomial outside truncation")
        coeff = coeff if coeff is not None else Poly.constant(ctx.V, 1)
        if coeff.is_zero():
            return cls.zero(ctx)
        return cls._raw(ctx, {exps: coeff})

    def coeff(self, exps) -> Poly:
        got = self.terms.get(_trim(exps))
        return got if got is not None else Poly.zero(_coeff_alphabet(self))

    def __eq__(self, other):
        return (
            isinstance(other, TPoly)
            and self.ctx.prime == other.ctx.prime
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (self.ctx.T.degree_of(e), e)):
            c = self.terms[e]
            mono = _format_tmono(e)
            cs = format_poly(c)
            if mono == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                cs = f"({cs})" if (" " in cs) else cs
                parts.append(f"{cs}*{mono}")
        return _join_signed(parts)


def _format_tmono(exps):
    if not exps:
        return "1"
    out = []
    for i, e in enumerate(exps, start=1):
        if e:
            out.append(f"t{i}" + (f"^{e}" if e > 1 else ""))
    return "*".join(out)


def _join_signed(parts):
    chunks = []
    for part in parts:
        if not chunks:
            chunks.append(part)
        elif part.startswith("-"):
            chunks.append("- " + part[1:])
        else:
            chunks.append("+ " + part)
    return " ".join(chunks)


def _add_exp_pairs(k1, k2) -> tuple:
    """Product key rule of the tensor square: add left and right exponents."""
    return (add_exps(k1[0], k2[0]), add_exps(k1[1], k2[1]))


class TensorPoly(SparseRing):
    """Element of BP_*(BP) (x) BP_*(BP), coefficients on the left factor.

    Keyed by (left exponents, right exponents).  A sibling of TPoly, not a
    subclass, so the two never multiply into each other by accident.
    """

    __slots__ = ("ctx",)
    _scalars = (int, Fraction, Poly)
    _add_keys = staticmethod(_add_exp_pairs)

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = {}
        for (le, re_), c in (terms or {}).items():
            add_term(
                clean,
                (_trim(le), _trim(re_)),
                c if isinstance(c, Poly) else Poly.constant(ctx.V, c),
            )
        self.terms = clean

    @classmethod
    def _raw(cls, ctx, terms):
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        return out

    def _like(self, terms):
        return TensorPoly._raw(self.ctx, terms)

    def _one(self):
        return TensorPoly.unit(self.ctx, _coeff_alphabet(self))

    @classmethod
    def unit(cls, ctx, coeff_alphabet=None):
        alph = coeff_alphabet or ctx.V
        return cls._raw(ctx, {((), ()): Poly.constant(alph, 1)})

    @classmethod
    def simple(cls, ctx, left_exps, right_exps, coeff):
        key = (_trim(left_exps), _trim(right_exps))
        if coeff.is_zero():
            return cls._raw(ctx, {})
        return cls._raw(ctx, {key: coeff})

    def coeff(self, left_exps, right_exps) -> Poly:
        got = self.terms.get((_trim(left_exps), _trim(right_exps)))
        return got if got is not None else Poly.zero(_coeff_alphabet(self))

    def __eq__(self, other):
        return isinstance(other, TensorPoly) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        keyfn = lambda k: (
            self.ctx.T.degree_of(k[0]) + self.ctx.T.degree_of(k[1]),
            k,
        )
        parts = []
        for k in sorted(self.terms, key=keyfn):
            c = self.terms[k]
            cs = format_poly(c)
            body = f"{_format_tmono(k[0])}(x){_format_tmono(k[1])}"
            if cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            else:
                cs = f"({cs})" if " " in cs else cs
                parts.append(f"{cs}*{body}")
        return _join_signed(parts)


def _parse_coeff_and_tmono(chunk: str, ctx: Context):
    """Split 'coef*t-monomial' into (v-Poly coefficient, t-exponents)."""
    from .grading import parse_poly

    factors = []
    buf, depth = [], 0
    for ch in chunk:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            factors.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    factors.append("".join(buf).strip())
    coeff = Poly.constant(ctx.V, 1)
    exps = [0] * ctx.truncation
    for factor in factors:
        if not factor:
            raise ParseError(f"empty factor in {chunk!r}")
        m = re.fullmatch(r"t(\d+)(?:\^(\d+))?", factor)
        if m:
            idx, power = int(m.group(1)), int(m.group(2) or 1)
            if idx < 1 or idx > ctx.truncation:
                raise TruncationError(f"t{idx} outside truncation")
            exps[idx - 1] += power
        elif factor == "1":
            continue
        elif factor.startswith("(") and factor.endswith(")"):
            coeff = coeff * parse_poly(factor[1:-1], ctx.V)
        else:
            coeff = coeff * parse_poly(factor, ctx.V)
    return coeff, _trim(tuple(exps))


def parse_tpoly(text: str, ctx: Context) -> TPoly:
    """Parse a co-operation literal, e.g. ``v3*t2 + t1^2 - 7*t1``."""
    out = TPoly.zero(ctx)
    for sign, chunk in split_signed_terms(text):
        coeff, exps = _parse_coeff_and_tmono(chunk, ctx)
        out = out + TPoly.monomial(ctx, exps, coeff=coeff * sign)
    return out


def parse_tensor(text: str, ctx: Context) -> TensorPoly:
    """Parse a tensor literal, e.g. ``t1^2(x)t2 + (-v1)*t1(x)t1^4``."""
    out = TensorPoly._raw(ctx, {})
    for sign, chunk in split_signed_terms(text):
        if "(x)" not in chunk:
            raise ParseError(f"tensor term {chunk!r} lacks an (x) separator")
        left, right = chunk.split("(x)", 1)
        coeff, le = _parse_coeff_and_tmono(left.strip(), ctx)
        rcoeff, re_ = _parse_coeff_and_tmono(right.strip(), ctx)
        coeff = coeff * rcoeff * sign
        out = out + TensorPoly.simple(ctx, le, re_, coeff)
    return out


# ---------------------------------------------------------------------------
# Flat tables under packed-int keys
# ---------------------------------------------------------------------------

# A flat table is {key: coefficient}: the key packs exponents into
# _FIELD_BITS-bit fields, so a product key is a plain sum and the one
# sparse kernel multiplies them (``_Flat``).  The low HAZEWINKEL_MAX_INDEX
# fields hold a v- or m-monomial (every flat image involves only indices
# 1..3 there); from ``_T_SHIFT`` up come t-exponents: the right unit packs
# t1..t3, the Cartan tables the index J, and the diagonal one block of
# t1..tN (N = ctx.truncation, ``_block``) per tensor factor.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_T_SHIFT = _FIELD_BITS * HAZEWINKEL_MAX_INDEX
_V_MASK = (1 << _T_SHIFT) - 1


def _pack(exps, shift=0) -> int:
    key = 0
    for j, e in enumerate(exps):
        key |= e << (shift + _FIELD_BITS * j)
    return key


def _unpack(key) -> tuple:
    exps = []
    while key:
        exps.append(key & _FIELD_MASK)
        key >>= _FIELD_BITS
    return tuple(exps)


def _block(ctx: Context) -> int:
    """Bits of one tensor factor's t-exponents t1..tN."""
    return _FIELD_BITS * ctx.truncation


def _t_blocks(ctx: Context, tkey: int, n: int) -> tuple:
    """The n t-exponent tuples of a key's t-part (key >> _T_SHIFT)."""
    width = _block(ctx)
    mask = (1 << width) - 1
    return tuple(_unpack(tkey >> width * b & mask) for b in range(n))


def _key_bound(ctx: Context, x: Poly, name: str) -> int:
    """max deg/q over the terms of x, a bound on every exponent of their
    packed images; ExponentOverflowError when it passes the field width."""
    bound = max((x.alphabet.degree_of(e) // ctx.q for e in x.terms), default=0)
    if bound > _FIELD_MASK:
        raise ExponentOverflowError(
            f"{name}: an exponent of the image (up to deg/q = {bound}) would "
            f"exceed the {_FIELD_BITS}-bit key field"
        )
    return bound


class _Flat(SparseRing):
    """A flat table: packed int key -> int (or Fraction) coefficient."""

    __slots__ = ()
    _add_keys = staticmethod(operator.add)

    def __init__(self, terms):
        self.terms = terms

    def _like(self, terms):
        return _Flat(terms)

    def _one(self):
        return _Flat({0: 1})


def _flat_image(ctx: Context, x: Poly, generator, name: str) -> _Flat:
    """The flat image of x under the ring map with generator images
    ``generator(ctx, i)``: sum c * prod_i generator(ctx, i)^(a_i) over the
    terms c * x^a, from memoized powers (``memo_power``), each image starting
    from a copy of its first power; a mixed monomial's image is not stored.
    Every exponent of the image of x^a is at most deg(x^a)/q, so
    ExponentOverflowError comes first when that bound passes the field
    width (``_key_bound``)."""
    _key_bound(ctx, x, name)
    acc = _Flat({})
    for exps, c in x.terms.items():
        image = None
        for i, e in enumerate(exps, start=1):
            if e:
                power = memo_power(ctx, generator, i, e)
                image = _Flat(dict(power.terms)) if image is None else image * power
        image = _Flat({0: c}) if image is None else image if c == 1 else image.scale(c)
        acc = acc + image if acc.terms else image
    return acc


@memoized
def _m_to_v_scaled(ctx: Context, key: int):
    """(s, p^s * m^a as {packed v-key: int}) for the packed m-monomial m^a:
    s = a1 + 2 a2 + 3 a3 clears the denominators of ``ctx.m_to_v``."""
    exps = _unpack(key)
    s = sum(i * e for i, e in enumerate(exps, start=1))
    return s, {_pack(e): _num(c * ctx.prime**s) for e, c in ctx.m_to_v(exps).items()}


def _m_to_v_flat(ctx: Context, terms: dict, K: int, where) -> _Flat:
    """A flat table with m-monomials in its low fields, rewritten in the
    v-basis: each term times its scaled image p^s * m^a
    (``_m_to_v_scaled``) raised to the scale p^K (K >= every s; deg/q
    bounds s), then one exact division by p^K.  A remainder, or a p left
    in a Fraction's denominator, is a non-integral value:
    ValueError(where(t-part of the key))."""
    p = ctx.prime
    acc = {}
    for k, c in terms.items():
        s, image = _m_to_v_scaled(ctx, k & _V_MASK)
        c *= p ** (K - s)
        t = k & ~_V_MASK
        for vk, d in image.items():
            vk += t
            acc[vk] = acc.get(vk, 0) + c * d
    out, pK = {}, p**K
    for k, c in acc.items():
        c, r = divmod(c, pK) if c.__class__ is int else (_num(c / pK), 0)
        if r or c.__class__ is Fraction and padic_valuation(c, p) < 0:
            raise ValueError(where(k >> _T_SHIFT))
        if c:
            out[k] = c
    return _Flat(out)


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
    m = lambda h: 1 << _FIELD_BITS * (h - 1) if h else 0
    t = lambda shift, i, e: e << shift + _FIELD_BITS * (i - 1) if i else 0
    # right-hand side sum over h+i+j = k; the (h,i,j)=(k,0,0) term cancels
    # against the i=k term of the left-hand side and both are omitted.
    rhs = {}
    for h in range(0, k + 1):
        for i in range(0, k - h + 1):
            j = k - h - i
            if i or j:
                rhs[m(h) + t(_T_SHIFT, i, p**h) + t(right, j, p ** (h + i))] = 1
    out = _Flat(rhs)
    for i in range(1, k):
        out = out - _Flat({m(i): 1}) * _psi_t_m(ctx, k - i) ** (p**i)
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
    width, t_k = _block(ctx), 1 << _T_SHIFT + _FIELD_BITS * (k - 1)
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
def psi_monomial(ctx: Context, exps: tuple) -> TensorPoly:
    """psi of the t-monomial with the given exponents: the flat product of
    memoized powers psi(t_i)^e (``_psi_flat``), unpacked once."""
    return _to_tensor(ctx, _psi_flat(ctx, exps))


def psi(x: TPoly) -> TensorPoly:
    """Multiplicative extension of the diagonal; left coefficients pass through."""
    ctx = x.ctx
    out = TensorPoly._raw(ctx, {})
    for exps, c in x.terms.items():
        out = out + psi_monomial(ctx, exps).scale(c)
    return out


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
    p, terms = ctx.prime, {}
    for a in range(0, i + 1):
        b = i - a
        m_a = 1 << _FIELD_BITS * (a - 1) if a else 0
        t_b = p**a << _T_SHIFT + _FIELD_BITS * (b - 1) if b else 0
        terms[m_a + t_b] = 1
    return _Flat(terms)


def eta_r_m(ctx: Context, x: Poly) -> TPoly:
    """Right unit on a rational m-polynomial; coefficients stay in the
    m-basis.  The flat right unit (products of memoized powers of
    ``_eta_r_m_generator``) unpacked into a TPoly; ``_eta_v_generator``
    reads the same flat images.

    The packed m-fields hold m1..m3, the generators the Hazewinkel
    relations cover, so x may involve only m1, m2, m3: a term in m4 or
    above raises TruncationError.
    """
    if x.alphabet != ctx.M:
        raise AlphabetError("eta_r_m expects an m-polynomial")
    if any(len(e) > HAZEWINKEL_MAX_INDEX for e in x.terms):
        raise TruncationError(
            f"eta_r_m covers m1..m{HAZEWINKEL_MAX_INDEX}, the packed m-fields"
        )
    flat = _flat_image(ctx, x, _eta_r_m_generator, "eta_r_m")
    return TPoly._raw(ctx, _by_t(flat, ctx.M))


@memoized
def _eta_v_generator(ctx: Context, i: int) -> _Flat:
    """Flat eta_R(v_i): the flat m-basis right unit of the Hazewinkel
    expansion ``ctx.v_in_m(i)`` (integer coefficients), changed back to
    the v-basis by one exact division (``_m_to_v_flat``)."""

    def where(tk):
        return f"eta_r(v{i}): non-integral coefficient at t^{_unpack(tk)}"

    x = ctx.v_in_m(i)
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
        raise AlphabetError(
            "eta_r expects a v-polynomial (eta_r_m takes m-polynomials)"
        )
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
def _factor_actions(ctx: Context, i: int):
    """The nonzero R_J m_i, all with coefficient 1, as (key, b, p^a): R_0
    m_i = m_i (b = 0) and R_J m_i = m_a for J = p^a in place b = i - a; key
    packs m_a in the low fields and J from ``_T_SHIFT`` up."""
    p = ctx.prime
    actions = [(1 << _FIELD_BITS * (i - 1), 0, 0)]
    for a in range(0, i):
        b = i - a  # b >= 1
        value = 1 << _FIELD_BITS * (a - 1) if a else 0
        index = p**a << _T_SHIFT + _FIELD_BITS * (b - 1)
        actions.append((value + index, b, p**a))
    return actions


def _mono_action_table(ctx: Context, exps, cap=None) -> dict:
    """R_J values on the m-monomial, via the Cartan formula, as a flat
    table {key: int}: the key packs a value's m-exponents and, from
    ``_T_SHIFT`` up, J; each factor action has coefficient 1, so the int
    counts the ways the pair arises.  The table holds every nonzero R_J when
    cap is None, else only the J <= cap componentwise: an exact restriction,
    since indices add componentwise with non-negative entries.

    Tables are memoized in ``ctx.memo["rtable"]`` under exps when full and
    in ``ctx.memo["rtable_pruned"]`` under (exps, cap) when pruned; a full
    table serves any cap.  Each step strips one factor of the highest
    generator, so the build walks down to the nearest cached suffix table
    and then back up in a loop, with no recursion depth tied to exponents.
    Callers bound the exponents first (``_key_bound``).
    """
    exps = _trim(exps)
    full, pruned = ctx.memo["rtable"], ctx.memo["rtable_pruned"]
    pending = []  # monomials still to build, largest first
    while True:
        table = full.get(exps)
        if table is None and cap is not None:
            table = pruned.get((exps, cap))
        if table is not None:
            break
        if not exps:
            table = full[()] = {0: 1}
            break
        pending.append(exps)
        exps = _trim(exps[:-1] + (exps[-1] - 1,))
    for exps in reversed(pending):
        rest, table = table, {}
        get = table.get
        for key, b, step in _factor_actions(ctx, len(exps)):
            items = rest.items()
            if cap is not None and b:
                # rest holds J <= cap, so only field b of the sum can pass it
                limit = (cap[b - 1] if b <= len(cap) else 0) - step
                shift = _T_SHIFT + _FIELD_BITS * (b - 1)
                items = [(k, c) for k, c in items if k >> shift & _FIELD_MASK <= limit]
            for k, c in items:
                k += key
                table[k] = get(k, 0) + c
        if cap is None:
            full[exps] = table
        else:
            pruned[exps, cap] = table
    return table


def _cartan_flat(ctx: Context, x: Poly, cap=None) -> _Flat:
    """R_J(x) for every J, or for J = cap only, as one flat table (v-key in
    the low fields, J from ``_T_SHIFT`` up): the flat Cartan tables'
    counts, weighted by the m-basis coefficients of x, back in the v-basis
    by one exact division (``_m_to_v_flat``); a p left in a denominator is
    a non-integral R_J(x): ValueError."""
    K = _key_bound(ctx, x, "r_action")
    # the packed J to keep: None keeps all, -1 none (cap past the field)
    want = cap and (_pack(cap) if max(cap) <= _FIELD_MASK else -1)
    acc = {}
    for exps, c in ctx.to_m_basis(x).terms.items():
        for k, n in _mono_action_table(ctx, exps, cap).items():
            if want is None or k >> _T_SHIFT == want:
                acc[k] = acc.get(k, 0) + c * n

    def where(jk):
        return f"r_action: non-integral value at index {_unpack(jk)}"

    return _m_to_v_flat(ctx, acc, K, where)


def _cartan(ctx: Context, x: Poly, cap=None) -> dict:
    """{J: R_J(x)}: ``_cartan_flat`` decoded into v-Polys (``_by_t``)."""
    return _by_t(_cartan_flat(ctx, x, cap), ctx.V)


def r_action_table(ctx: Context, x: Poly) -> dict:
    """All nonzero R_I(x) for a v-polynomial, as {index: integral v-Poly},
    from the full flat Cartan tables (``_cartan_flat``, decoded).  Raises
    ValueError on a non-integral value, and ExponentOverflowError before any
    arithmetic when an exponent could pass the key field."""
    return _cartan(ctx, x)


def r_action(ctx: Context, index, x: Poly) -> Poly:
    """R_I acting on the coefficient ring (additive, Cartan multiplicative).

    Reads R_I off each m-monomial's flat Cartan table pruned to the indices
    J <= I, the only entries R_I depends on (see ``_mono_action_table``);
    errors as in ``r_action_table``.
    """
    index = _trim(tuple(index))
    if len(index) > ctx.truncation:
        raise TruncationError(f"operation index {index} outside truncation")
    if not index:
        return x
    return _cartan(ctx, x, index).get(index, Poly.zero(ctx.V))


def r_action_word(ctx: Context, word, x: Poly) -> Poly:
    """Apply a composition word of indices right-to-left: (R_a R_b)(x) = R_a(R_b(x))."""
    out = x
    for idx in reversed(tuple(word)):
        out = r_action(ctx, idx, out)
        if out.is_zero():
            break
    return out


# ---------------------------------------------------------------------------
# Operations, pairing, composition
# ---------------------------------------------------------------------------


class OperationCombo(Sparse):
    """Finite left-coefficient combination of dual operations R_I:
    index -> coefficient Poly over V."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = {}
        for idx, c in (terms or {}).items():
            add_term(
                clean,
                _trim(tuple(idx)),
                c if isinstance(c, Poly) else Poly.constant(ctx.V, c),
            )
        self.terms = clean

    def _like(self, terms):
        return OperationCombo(self.ctx, terms)

    @classmethod
    def basis(cls, ctx, *index):
        return cls(ctx, {opindex(*index): Poly.constant(ctx.V, 1)})

    def degree(self):
        """Operation degree deg(t^I) - deg(coefficient), consistent across terms."""
        degs = {
            opindex_degree(i, self.ctx) - c.degree()
            for i, c in self.terms.items()
        }
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"mixed operation degrees {sorted(degs)}")
        return degs.pop()

    def __eq__(self, other):
        return isinstance(other, OperationCombo) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i in sorted(self.terms, key=lambda i: (opindex_degree(i, self.ctx), i)):
            c = format_poly(self.terms[i])
            r = format_opindex(i)
            if c == "1":
                parts.append(r)
            elif c == "-1":
                parts.append(f"-{r}")
            else:
                c = f"({c})" if " " in c else c
                parts.append(f"{c}*{r}")
        return _join_signed(parts)


def pair(a: OperationCombo, x: TPoly) -> Poly:
    """Kronecker pairing, left-linear over the coefficient ring."""
    ctx = a.ctx
    out = Poly.zero(ctx.V)
    for idx, c in a.terms.items():
        b = x.terms.get(idx)
        if b is not None:
            out = out + c * b
    return out


@memoized
def _eta_r_cached(ctx: Context, x: Poly) -> TPoly:
    """eta_r(x), memoized under x: the inner values of the nested pairing."""
    return eta_r(ctx, x)


def _through_diagonal(ctx: Context, head: tuple, exps: tuple, inner) -> Poly:
    """<R_head b, t^exps> for the operation b with <b, t^re> = inner(re)
    (None for 0): the sum over psi t^exps = sum c t^le (x) t^re of c times
    the t^(head - le)-coefficient of eta_R(inner(re)).  The inner value
    multiplies the left factor through the right unit; a scalar crosses as
    itself, so only le = head takes it.  inner is called only on the
    right factors of terms whose le divides head."""
    acc = Poly.zero(ctx.V)
    for (le, re), c in psi_monomial(ctx, exps).terms.items():
        if not exps_divides(le, head):
            continue
        value = inner(re)
        if not value:
            continue
        if value.terms.keys() == {()}:
            if le == head:
                acc = acc + c * value
            continue
        u = _trim(tuple(h - (le[i] if i < len(le) else 0) for i, h in enumerate(head)))
        d = _eta_r_cached(ctx, value).terms.get(u)
        if d is not None:
            acc = acc + c * d
    return acc


def compose_pair(a: OperationCombo, b: OperationCombo, x: TPoly) -> Poly:
    """<ab, x> = sum_i <a, e_i <b, x_i>> over psi x = sum e_i (x) x_i.

    Left-linear over the terms of x and the indices of a: each pair is one
    step of the nested evaluation (``_through_diagonal``), where the inner
    value <b, x_i> multiplies the left factor e_i through the right unit
    (e_i . d = eta_R(d)-multiplication), landing in its left coefficient;
    a scalar inner value is plain left-coefficient multiplication.  Signs
    are all +1: every degree in play is even, asserted on entry.
    """
    ctx = a.ctx
    for e, c in x.terms.items():
        if (ctx.T.degree_of(e) + (c.degree() or 0)) % 2:
            raise DegreeError("odd degree in pairing input")
    out = Poly.zero(ctx.V)
    for exps, c in x.terms.items():
        for idx, d in a.terms.items():
            got = _through_diagonal(ctx, idx, exps, b.terms.get)
            if got:
                out = out + d * c * got
    return out


@memoized
def pair_word(ctx: Context, word: tuple, exps: tuple) -> Poly:
    """<R_(w1) R_(w2) ... , t^exps> by nested evaluation of the diagonal:
    the one-letter word pairs by the dual basis, a longer one is one step
    ``_through_diagonal`` over the pairing of its tail.

    Inner values cross the left tensor factor through the right unit, so
    the nested evaluation is associative (see the associativity checks).
    """
    word = tuple(_trim(w) for w in word) or ((),)  # the empty word is R[0]
    exps = _trim(exps)
    if len(word) == 1:
        return Poly.constant(ctx.V, 1 if exps == word[0] else 0)
    rest = word[1:]
    return _through_diagonal(ctx, word[0], exps, lambda re: pair_word(ctx, rest, re))


def product_in_basis(
    a: OperationCombo, b: OperationCombo, degree_bound: int
) -> OperationCombo:
    """Expand ab in the dual basis: ab = sum_J <ab, t^J> R_J.

    Exact for every index of degree <= degree_bound (homotopy degree).
    """
    ctx = a.ctx
    terms = {}
    for mono in monomials_up_to(degree_bound, ctx.T):
        x = TPoly.monomial(ctx, mono.exps)
        c = compose_pair(a, b, x)
        if not c.is_zero():
            terms[mono.exps] = c
    return OperationCombo(ctx, terms)


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
        degs = {
            sum(opindex_degree(i, self.ctx) for i in w) for _, w in self.parts
        }
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"mixed word degrees {sorted(degs)}")
        return degs.pop()

    def indices_positive(self) -> bool:
        """Grading guard: every non-identity letter raises degree."""
        return all(
            opindex_degree(i, self.ctx) > 0
            for _, w in self.parts
            for i in w
            if i != ()
        )

    def act(self, x: Poly) -> Poly:
        out = Poly.zero(self.ctx.V)
        for scalar, word in self.parts:
            out = out + scalar * r_action_word(self.ctx, word, x)
        return out

    def pair_monomial(self, exps) -> Poly:
        out = Poly.zero(self.ctx.V)
        for scalar, word in self.parts:
            out = out + scalar * pair_word(self.ctx, word, exps)
        return out

    def __str__(self):
        if not self.parts:
            return "0"
        chunks = []
        for s, w in self.parts:
            body = format_word(w)
            if s == 1:
                chunks.append(body)
            elif s == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{s}*{body}")
        return _join_signed(chunks)


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


def verify_structural(ctx: Context) -> Report:
    """Structural coherence: exact basis round trip, integral diagonal for
    k <= 3, and Cartan action == right-unit coefficients on every v-monomial
    of degree <= 2(p^3 - 1), comparing the flat cores (one key layout) that
    ``eta_r`` and ``r_action_table`` decode: ``_eta_r_flat``, ``_cartan_flat``."""
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
    for mono in monomials_up_to(bound, ctx.V):
        x = Poly(ctx.V, {mono.exps: 1})
        checked += 1
        if _eta_r_flat(ctx, x).terms != _cartan_flat(ctx, x).terms:
            mismatches.append(str(mono))
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


def verify_lemma_7_1(ctx: Context, degree_bound_q: int | None = None) -> Report:
    """Check the commutator and derived identities by pairing both sides
    against every t-monomial up to the degree window; residuals must vanish
    identically (exact arithmetic, no tolerance)."""
    bound_q = degree_bound_q if degree_bound_q is not None else 2 * ctx.prime + 4
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
    # the dual-basis expansion of the first commutator is exactly R[0,1]
    a = OperationCombo.basis(ctx, 1)
    b = OperationCombo.basis(ctx, ctx.prime)
    ab = product_in_basis(a, b, bound)
    ba = product_in_basis(b, a, bound)
    commutator = ab - ba
    expected = OperationCombo.basis(ctx, 0, 1)
    report.check(
        id="basis-expansion[R[1]R[p]-R[p]R[1]]",
        anchor="R[1]R[p] - R[p]R[1] expands to exactly R[0,1]",
        status=commutator == expected,
        expected=str(expected),
        computed=str(commutator),
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
