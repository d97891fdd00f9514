"""The tuple-keyed v <-> m basis change: a test oracle for the flat tables.

The Hazewinkel recursions run here on their own, in the rational m- and
v-bases, as ``Fraction``-valued ``Poly`` arithmetic (Ravenel, *Complex
Cobordism*, ch. 4):

    v_i = p m_i - sum_{0<j<i} v_(i-j)^(p^j) m_j,
    p m_i = v_i + sum_{0<j<i} v_(i-j)^(p^j) m_j        (i <= 3).

Each monomial goes to the product of powers of the generator images
``v_in_m(ctx, i)`` (or ``m_in_v(ctx, i)``), applied through
``Poly.substitute``.  The oracle shares no code with the packed-key tables
of ``grading``, whose generator tables run the same recursions over Z, and
writes nothing into ``ctx.memo``.
"""

import functools
from fractions import Fraction

from bpcalc.errors import TruncationError
from bpcalc.grading import HAZEWINKEL_MAX_INDEX, Poly


def _steps(tag, i):
    """The indices i-1, ..., 1 of the relation for generator i (i <= 3)."""
    if i < 1 or i > HAZEWINKEL_MAX_INDEX:
        raise TruncationError(
            f"hazewinkel relation table covers {tag}1..{tag}{HAZEWINKEL_MAX_INDEX}, got {tag}{i}"
        )
    return range(i - 1, 0, -1)


@functools.lru_cache(maxsize=None)
def v_in_m(ctx, i):
    """v_i in the rational m-basis: v1 = p*m1, v2 = p*m2 - v1^p*m1,
    v3 = p*m3 - v1^(p^2)*m2 - v2^p*m1."""
    p = ctx.prime
    out = p * ctx.m(i)
    for j in _steps("v", i):
        out = out - v_in_m(ctx, i - j) ** (p**j) * ctx.m(j)
    return out


@functools.lru_cache(maxsize=None)
def m_in_v(ctx, i):
    """m_i in the v-basis with rational coefficients:
    p*m_i = v_i + sum_{0<j<i} v_(i-j)^(p^j) * m_j."""
    p = ctx.prime
    out = ctx.v(i)
    for j in _steps("m", i):
        out = out + ctx.v(i - j) ** (p**j) * m_in_v(ctx, j)
    return Fraction(1, p) * out


@functools.lru_cache(maxsize=None)
def _image(ctx, exps, to_m):
    """The terms of the image of the monomial with exponents exps."""
    source, target = (ctx.V, ctx.M) if to_m else (ctx.M, ctx.V)
    gen = v_in_m if to_m else m_in_v
    prod = Poly.constant(target, 1)
    for i, e in enumerate(exps, start=1):
        if e:
            if i > HAZEWINKEL_MAX_INDEX:
                raise TruncationError(f"no substitution image for {source.name(i)}")
            prod = prod * gen(ctx, i) ** e
    return prod.terms


def to_m(ctx, x):
    """The v-polynomial x in the rational m-basis."""
    assert x.alphabet == ctx.V
    return x.substitute(lambda exps: _image(ctx, exps, True), ctx.M)


def to_v(ctx, x):
    """The m-polynomial x in the v-basis."""
    assert x.alphabet == ctx.M
    return x.substitute(lambda exps: _image(ctx, exps, False), ctx.V)
