"""The BP Hopf algebroid at an odd prime.

BP_*(BP) = pi_*(BP)[t_1, t_2, ...] with deg t_i = 2(p^i - 1).  The diagonal
psi is computed by solving

    sum_{i+j=k} m_i (psi t_j)^(p^i)
        = sum_{h+i+j=k} m_h t_i^(p^h) (x) t_j^(p^(h+i))     (t_0 = m_0 = 1)

recursively in the rational m-basis, then converting coefficients to the
integral v-basis.  The dual operations R_I are indexed by finite sequences
(i_1, ..., i_n), R_I dual to t_1^(i_1)...t_n^(i_n) under the left-linear
Kronecker pairing <R_I, t^J> = delta_IJ.

Conventions (validated wholesale by verify_lemma_7_1):
  * coefficients live on the LEFT tensor factor;
  * the composition product evaluates <ab, x> = sum_i <a, e_i <b, x_i>>
    with <b, x_i> multiplied into the left coefficient of e_i;
  * all Koszul signs are +1 -- every degree in play is even (asserted).

The action of R_I on the coefficient ring is computed two independent ways:
via the Cartan formula from the base values on the m-generators, and as the
t^I-coefficient of the right unit eta_R; their agreement is a standing
cross-check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from .errors import AlphabetError, DegreeError, ParseError, TruncationError
from .grading import (
    Context,
    Poly,
    add_exps,
    exps_divides,
    format_poly,
    monomials_up_to,
    _trim,
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


class TPoly:
    """Element of BP_*(BP): finite mapping t-monomial -> left coefficient."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = {}
        for exps, c in (terms or {}).items():
            exps = _trim(exps)
            if not isinstance(c, Poly):
                c = Poly.constant(ctx.V, c)
            if c.is_zero():
                continue
            prev = clean.get(exps)
            c = prev + c if prev is not None else c
            if c.is_zero():
                clean.pop(exps, None)
            else:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _raw(cls, ctx, terms):
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        return out

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
        exps = _trim(exps)
        got = self.terms.get(exps)
        if got is not None:
            return got
        alph = next(iter(self.terms.values())).alphabet if self.terms else self.ctx.V
        return Poly.zero(alph)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        return TPoly._raw(self.ctx, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """Multiply every left coefficient by a scalar or coefficient Poly."""
        terms = {}
        for e, coeff in self.terms.items():
            s = coeff * c
            if not s.is_zero():
                terms[e] = s
        return TPoly._raw(self.ctx, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = add_exps(e1, e2)
                c = c1 * c2
                prev = terms.get(e)
                c = c if prev is None else prev + c
                if c.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = c
        return TPoly._raw(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = TPoly.unit(
            self.ctx,
            next(iter(self.terms.values())).alphabet if self.terms else None,
        )
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        return (
            isinstance(other, TPoly)
            and self.ctx.prime == other.ctx.prime
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def map_coeffs(self, fn):
        terms = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                terms[e] = v
        return TPoly._raw(self.ctx, terms)

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


class TensorPoly:
    """Element of BP_*(BP) (x) BP_*(BP), coefficients on the left factor."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = {}
        for key, c in (terms or {}).items():
            key = (_trim(key[0]), _trim(key[1]))
            if not isinstance(c, Poly):
                c = Poly.constant(ctx.V, c)
            if c.is_zero():
                continue
            prev = clean.get(key)
            c = prev + c if prev is not None else c
            if c.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _raw(cls, ctx, terms):
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        return out

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
        if got is not None:
            return got
        alph = next(iter(self.terms.values())).alphabet if self.terms else self.ctx.V
        return Poly.zero(alph)

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(k, None)
            else:
                terms[k] = s
        return TensorPoly._raw(self.ctx, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        terms = {}
        for k, coeff in self.terms.items():
            s = coeff * c
            if not s.is_zero():
                terms[k] = s
        return TensorPoly._raw(self.ctx, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        terms = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                k = (add_exps(l1, l2), add_exps(r1, r2))
                c = c1 * c2
                prev = terms.get(k)
                c = c if prev is None else prev + c
                if c.is_zero():
                    terms.pop(k, None)
                else:
                    terms[k] = c
        return TensorPoly._raw(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = TensorPoly.unit(
            self.ctx,
            next(iter(self.terms.values())).alphabet if self.terms else None,
        )
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        return isinstance(other, TensorPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def map_coeffs(self, fn):
        terms = {}
        for k, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                terms[k] = v
        return TensorPoly._raw(self.ctx, terms)

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


def _split_signed_terms(text: str):
    """Split a sum on top-level +/- (outside parentheses)."""
    terms = []
    sign, buf, depth = 1, [], 0
    s = text.strip()
    i = 0
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            chunk = "".join(buf).strip()
            if not chunk:
                raise ParseError(f"dangling sign in {text!r}")
            terms.append((sign, chunk))
            sign = -1 if ch == "-" else 1
            buf = []
        else:
            buf.append(ch)
        i += 1
    chunk = "".join(buf).strip()
    if not chunk:
        raise ParseError(f"dangling sign in {text!r}")
    terms.append((sign, chunk))
    return terms


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
    for sign, chunk in _split_signed_terms(text):
        coeff, exps = _parse_coeff_and_tmono(chunk, ctx)
        out = out + TPoly.monomial(ctx, exps, coeff=coeff * sign)
    return out


def parse_tensor(text: str, ctx: Context) -> TensorPoly:
    """Parse a tensor literal, e.g. ``t1^2(x)t2 + (-v1)*t1(x)t1^4``."""
    out = TensorPoly._raw(ctx, {})
    for sign, chunk in _split_signed_terms(text):
        if "(x)" not in chunk:
            raise ParseError(f"tensor term {chunk!r} lacks an (x) separator")
        left, right = chunk.split("(x)", 1)
        coeff, le = _parse_coeff_and_tmono(left.strip(), ctx)
        rcoeff, re_ = _parse_coeff_and_tmono(right.strip(), ctx)
        coeff = coeff * rcoeff * sign
        out = out + TensorPoly.simple(ctx, le, re_, coeff)
    return out


# ---------------------------------------------------------------------------
# The diagonal
# ---------------------------------------------------------------------------


def _psi_t_rational(ctx: Context, k: int) -> TensorPoly:
    """psi t_k with coefficients in the rational m-basis (cached)."""
    key = ("psi_t_m", k)
    if key in ctx.cache:
        return ctx.cache[key]
    if k == 0:
        return TensorPoly.unit(ctx, ctx.M)
    if k > ctx.truncation:
        raise TruncationError(f"psi t_{k} outside truncation N={ctx.truncation}")
    p = ctx.prime
    acc = {}
    # right-hand side sum over h+i+j = k; the (h,i,j)=(k,0,0) term cancels
    # against the i=k term of the left-hand side and both are omitted.
    for h in range(0, k + 1):
        for i in range(0, k - h + 1):
            j = k - h - i
            if i == 0 and j == 0:
                continue
            left = (0,) * (i - 1) + (p**h,) if i else ()
            right = (0,) * (j - 1) + (p ** (h + i),) if j else ()
            coeff = Poly.gen(ctx.M, h) if h else Poly.constant(ctx.M, 1)
            keyt = (left, right)
            prev = acc.get(keyt)
            acc[keyt] = coeff if prev is None else prev + coeff
    rhs = TensorPoly._raw(ctx, acc)
    for i in range(1, k):
        sub = _psi_t_rational(ctx, k - i) ** (p**i)
        rhs = rhs - sub.scale(Poly.gen(ctx.M, i))
    ctx.cache[key] = rhs
    return rhs


def psi_t(ctx: Context, k: int) -> TensorPoly:
    """The diagonal on t_k, coefficients in the integral v-basis.

    Passes integrality, homogeneity and both counit identities.
    """
    key = ("psi_t_v", k)
    if key in ctx.cache:
        return ctx.cache[key]
    if not 1 <= k <= ctx.truncation:
        raise TruncationError(f"psi t_{k} outside truncation N={ctx.truncation}")
    rational = _psi_t_rational(ctx, k)
    result = rational.map_coeffs(ctx.to_v_basis)
    for (le, re), c in result.terms.items():
        if not c.is_integral(ctx.prime):
            raise ValueError(f"psi t_{k}: non-integral coefficient at {(le, re)}")
        d = c.degree() + ctx.T.degree_of(le) + ctx.T.degree_of(re)
        if d != ctx.T.gen_degree(k):
            raise DegreeError(f"psi t_{k}: degree drift at {(le, re)}")
    for side in (0, 1):
        edge = {}
        for (le, re), c in result.terms.items():
            if (le, re)[1 - side] == ():
                e = (le, re)[side]
                edge[e] = edge.get(e, Poly.zero(ctx.V)) + c
        expect = (0,) * (k - 1) + (1,)
        edge = {e: c for e, c in edge.items() if not c.is_zero()}
        if edge != {expect: Poly.constant(ctx.V, 1)}:
            raise ValueError(f"psi t_{k}: counit check failed on side {side}")
    ctx.cache[key] = result
    return result


def psi_monomial(ctx: Context, exps) -> TensorPoly:
    """psi of the t-monomial with the given exponents (cached)."""
    exps = _trim(exps)
    key = ("psi_mono", exps)
    if key in ctx.cache:
        return ctx.cache[key]
    result = TensorPoly.unit(ctx)
    for i, e in enumerate(exps, start=1):
        if not e:
            continue
        pkey = ("psi_pow", i, e)
        if pkey not in ctx.cache:
            ctx.cache[pkey] = psi_t(ctx, i) ** e
        result = result * ctx.cache[pkey]
    ctx.cache[key] = result
    return result


def psi(x: TPoly) -> TensorPoly:
    """Multiplicative extension of the diagonal; left coefficients pass through."""
    ctx = x.ctx
    out = TensorPoly._raw(ctx, {})
    for exps, c in x.terms.items():
        out = out + psi_monomial(ctx, exps).scale(c)
    return out


def coassociativity_check(ctx: Context, k: int) -> bool:
    """(psi (x) 1) psi t_k == (1 (x) psi) psi t_k.

    Triple tensors are normalized with all coefficients pulled to the far
    left; a coefficient produced in the right factor crosses the middle
    one through the right unit.
    """
    triple_l: dict = {}
    triple_r: dict = {}
    for (le, re), c in psi_t(ctx, k).terms.items():
        for (a, b), d in psi_monomial(ctx, le).terms.items():
            key = (a, b, re)
            v = c * d
            prev = triple_l.get(key)
            triple_l[key] = v if prev is None else prev + v
        for (a, b), d in psi_monomial(ctx, re).terms.items():
            # c * t^le (x) d * t^a (x) t^b  ==  c * (t^le . eta_R(d)) (x) t^a (x) t^b
            if d.terms.keys() == {()}:
                key = (le, a, b)
                v = c * d
                prev = triple_r.get(key)
                triple_r[key] = v if prev is None else prev + v
            else:
                for u, e in _eta_r_cached(ctx, d).terms.items():
                    key = (add_exps(le, u), a, b)
                    v = c * e
                    prev = triple_r.get(key)
                    triple_r[key] = v if prev is None else prev + v
    triple_l = {k2: v for k2, v in triple_l.items() if not v.is_zero()}
    triple_r = {k2: v for k2, v in triple_r.items() if not v.is_zero()}
    return triple_l == triple_r


# ---------------------------------------------------------------------------
# Right unit
# ---------------------------------------------------------------------------


def _eta_r_m_generator(ctx: Context, i: int) -> TPoly:
    """eta_R(m_i) = sum_{a+b=i} m_a t_b^(p^a), coefficients in the m-basis."""
    key = ("eta_m_gen", i)
    if key in ctx.cache:
        return ctx.cache[key]
    p = ctx.prime
    terms = {}
    for a in range(0, i + 1):
        b = i - a
        exps = (0,) * (b - 1) + (p**a,) if b else ()
        coeff = Poly.gen(ctx.M, a) if a else Poly.constant(ctx.M, 1)
        terms[exps] = coeff
    out = TPoly._raw(ctx, terms)
    ctx.cache[key] = out
    return out


def eta_r_m(ctx: Context, x: Poly) -> TPoly:
    """Right unit on a rational m-polynomial; coefficients stay in the m-basis."""
    if x.alphabet != ctx.M:
        raise AlphabetError("eta_r_m expects an m-polynomial")
    out = TPoly._raw(ctx, {})
    for exps, c in x.terms.items():
        term = TPoly.unit(ctx, ctx.M).scale(Poly.constant(ctx.M, c))
        for i, e in enumerate(exps, start=1):
            if not e:
                continue
            pkey = ("eta_m_pow", i, e)
            if pkey not in ctx.cache:
                ctx.cache[pkey] = _eta_r_m_generator(ctx, i) ** e
            term = term * ctx.cache[pkey]
        out = out + term
    return out


def eta_r(ctx: Context, x: Poly) -> TPoly:
    """Right unit on an integral v-polynomial, coefficients in the v-basis.

    Ring homomorphism; the coefficient of t^I equals r_action(I, x) for
    every I (standing cross-check).
    """
    result = eta_r_m(ctx, ctx.to_m_basis(x))
    out = result.map_coeffs(ctx.to_v_basis)
    for e, c in out.terms.items():
        if not c.is_integral(ctx.prime):
            raise ValueError(f"eta_r: non-integral coefficient at t^{e}")
    return out


# ---------------------------------------------------------------------------
# Cartan action on the coefficient ring
# ---------------------------------------------------------------------------


def _factor_actions(ctx: Context, i: int):
    """Nonzero R_index values on the generator m_i: [(index, value)]."""
    key = ("factor_actions", i)
    if key in ctx.cache:
        return ctx.cache[key]
    p = ctx.prime
    actions = [((), Poly.gen(ctx.M, i))]
    for a in range(0, i):
        b = i - a  # b >= 1
        idx = (0,) * (b - 1) + (p**a,)
        value = Poly.gen(ctx.M, a) if a else Poly.constant(ctx.M, 1)
        actions.append((idx, value))
    ctx.cache[key] = actions
    return actions


def _mono_action_table(ctx: Context, exps) -> dict:
    """All R_I values on the m-monomial, via the Cartan formula.

    Returns {index: m-basis Poly}; memoized on suffix monomials so sweeps
    over many monomials share work.
    """
    exps = _trim(exps)
    key = ("rtable", exps)
    if key in ctx.cache:
        return ctx.cache[key]
    if not exps:
        table = {(): Poly.constant(ctx.M, 1)}
    else:
        # strip one factor of the highest generator present
        i = len(exps)
        rest = exps[:-1] + (exps[-1] - 1,)
        rest_table = _mono_action_table(ctx, rest)
        table = {}
        for idx_l, val_l in _factor_actions(ctx, i):
            for idx_r, val_r in rest_table.items():
                idx = add_exps(idx_l, idx_r)
                v = val_l * val_r
                prev = table.get(idx)
                v = v if prev is None else prev + v
                if v.is_zero():
                    table.pop(idx, None)
                else:
                    table[idx] = v
    ctx.cache[key] = table
    return table


def r_action_table(ctx: Context, x: Poly) -> dict:
    """All nonzero R_I(x) for a v-polynomial, as {index: integral v-Poly}."""
    xm = ctx.to_m_basis(x)
    acc = {}
    for exps, c in xm.terms.items():
        for idx, val in _mono_action_table(ctx, exps).items():
            v = val * c
            prev = acc.get(idx)
            v = v if prev is None else prev + v
            acc[idx] = v
    out = {}
    for idx, val in acc.items():
        if val.is_zero():
            continue
        v = ctx.to_v_basis(val)
        if v.is_zero():
            continue
        if not v.is_integral(ctx.prime):
            raise ValueError(f"r_action: non-integral value at index {idx}")
        out[idx] = v
    return out


def r_action(ctx: Context, index, x: Poly) -> Poly:
    """R_I acting on the coefficient ring (additive, Cartan multiplicative)."""
    index = _trim(tuple(index))
    if len(index) > ctx.truncation:
        raise TruncationError(f"operation index {index} outside truncation")
    if not index:
        return x
    xm = ctx.to_m_basis(x)
    acc = Poly.zero(ctx.M)
    for exps, c in xm.terms.items():
        val = _mono_action_table(ctx, exps).get(index)
        if val is not None:
            acc = acc + val * c
    out = ctx.to_v_basis(acc)
    if not out.is_integral(ctx.prime):
        raise ValueError(f"r_action: non-integral value at index {index}")
    return out


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


@dataclass
class OperationCombo:
    """Finite left-coefficient combination of dual operations R_I."""

    ctx: Context
    terms: dict = field(default_factory=dict)  # index -> Poly over V
    window: int | None = None  # pairing window (homotopy degree) if windowed

    def __post_init__(self):
        clean = {}
        for idx, c in self.terms.items():
            idx = _trim(tuple(idx))
            if not isinstance(c, Poly):
                c = Poly.constant(self.ctx.V, c)
            if not c.is_zero():
                clean[idx] = c
        self.terms = clean

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

    def __add__(self, other):
        terms = dict(self.terms)
        for i, c in other.terms.items():
            s = terms.get(i)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(i, None)
            else:
                terms[i] = s
        return OperationCombo(self.ctx, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return OperationCombo(
            self.ctx, {i: coeff * c for i, coeff in self.terms.items()}
        )

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


def _eta_r_cached(ctx: Context, x: Poly) -> TPoly:
    key = ("eta_of", frozenset(x.terms.items()))
    if key not in ctx.cache:
        ctx.cache[key] = eta_r(ctx, x)
    return ctx.cache[key]


def compose_pair(a: OperationCombo, b: OperationCombo, x: TPoly) -> Poly:
    """<ab, x> = sum_i <a, e_i <b, x_i>> over psi x = sum e_i (x) x_i.

    The inner value <b, x_i> multiplies the left factor e_i through the
    right unit (e_i . d = eta_R(d)-multiplication), which lands it in the
    left coefficient of e_i after normalization; on binary products with
    scalar inner values this is plain left-coefficient multiplication.
    Signs are all +1: every degree in play is even, asserted on entry.
    """
    ctx = a.ctx
    for e, c in x.terms.items():
        if (ctx.T.degree_of(e) + (c.degree() or 0)) % 2:
            raise DegreeError("odd degree in pairing input")
    diag = psi(x)
    carried = {}
    for (le, re), c in diag.terms.items():
        bre = b.terms.get(re)
        if bre is None or bre.is_zero():
            continue
        if bre.terms.keys() == {()}:  # scalar inner value: no crossing
            v = c * bre
            prev = carried.get(le)
            v = v if prev is None else prev + v
            carried[le] = v
            continue
        for u, d in _eta_r_cached(ctx, bre).terms.items():
            e2 = add_exps(le, u)
            v = c * d
            prev = carried.get(e2)
            v = v if prev is None else prev + v
            carried[e2] = v
    out = Poly.zero(ctx.V)
    for idx, c in a.terms.items():
        got = carried.get(idx)
        if got is not None and not got.is_zero():
            out = out + c * got
    return out


def pair_word(ctx: Context, word, exps) -> Poly:
    """<R_(w1) R_(w2) ... , t^exps> by nested evaluation of the diagonal.

    Inner values cross the left tensor factor through the right unit, so
    the nested evaluation is associative (see the associativity checks).
    """
    word = tuple(_trim(tuple(w)) for w in word)
    exps = _trim(exps)
    key = ("pair_word", word, exps)
    if key in ctx.cache:
        return ctx.cache[key]
    if not word:
        out = Poly.constant(ctx.V, 1 if exps == () else 0)
    elif len(word) == 1:
        out = Poly.constant(ctx.V, 1 if exps == word[0] else 0)
    else:
        head, rest = word[0], word[1:]
        acc = Poly.zero(ctx.V)
        for (le, re), c in psi_monomial(ctx, exps).terms.items():
            if not exps_divides(le, head):
                continue
            inner = pair_word(ctx, rest, re)
            if inner.is_zero():
                continue
            if le == head and inner.terms.keys() == {()}:
                acc = acc + c * inner
                continue
            u = tuple(
                (head[i] if i < len(head) else 0) - (le[i] if i < len(le) else 0)
                for i in range(max(len(head), len(le)))
            )
            d = _eta_r_cached(ctx, inner).terms.get(_trim(u))
            if d is not None:
                acc = acc + c * d
        out = acc
    ctx.cache[key] = out
    return out


def product_in_basis(
    a: OperationCombo, b: OperationCombo, degree_bound: int
) -> OperationCombo:
    """Expand ab in the dual basis: ab = sum_J <ab, t^J> R_J.

    Exact for every index of degree <= degree_bound (homotopy degree);
    the window is recorded on the result.
    """
    ctx = a.ctx
    terms = {}
    for mono in monomials_up_to(degree_bound, ctx.T):
        x = TPoly.monomial(ctx, mono.exps)
        c = compose_pair(a, b, x)
        if not c.is_zero():
            terms[mono.exps] = c
    return OperationCombo(ctx, terms, window=degree_bound)


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
    of degree <= 2(p^3 - 1)."""
    from .grading import monomials_up_to as _monos

    p = ctx.prime
    report = Report(
        "structural coherence of the operation calculus",
        config={"prime": p, "truncation": ctx.truncation},
    )
    t0 = perf_counter()
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
        runtime_ms=int((perf_counter() - t0) * 1000),
    )
    t0 = perf_counter()
    ok, note = True, []
    for k in (1, 2, 3):
        pk = psi_t(ctx, k)  # integrality/counit/degree asserted inside
        note.append(f"psi t_{k}: {len(pk.terms)} terms, integral")
    report.check(
        id="psi-integral",
        anchor="every coefficient of psi t_k is p-local in the v-basis, k <= 3",
        status=ok,
        computed="; ".join(note),
        runtime_ms=int((perf_counter() - t0) * 1000),
    )
    t0 = perf_counter()
    bound = 2 * (p**3 - 1)
    mismatches = []
    checked = 0
    for mono in _monos(bound, ctx.V):
        x = Poly(ctx.V, {mono.exps: 1})
        via_eta = {e: c for e, c in eta_r(ctx, x).terms.items()}
        via_cartan = r_action_table(ctx, x)
        checked += 1
        if via_eta != via_cartan:
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
        runtime_ms=int((perf_counter() - t0) * 1000),
    )
    t0 = perf_counter()
    ok = all(coassociativity_check(ctx, k) for k in (1, 2))
    report.check(
        id="coassociativity",
        anchor="(psi (x) 1) psi t_k = (1 (x) psi) psi t_k",
        status=ok,
        computed="k <= 2 at the configured prime (k = 3 exercised in tests)",
        runtime_ms=int((perf_counter() - t0) * 1000),
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
        t0 = perf_counter()
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
            runtime_ms=int((perf_counter() - t0) * 1000),
        )
    # the dual-basis expansion of the first commutator is exactly R[0,1]
    t0 = perf_counter()
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
        runtime_ms=int((perf_counter() - t0) * 1000),
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
