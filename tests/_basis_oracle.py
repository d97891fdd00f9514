"""The tuple-keyed v <-> m basis change: a test oracle for the flat tables.

Each monomial goes to the product of powers of the generator images
``ctx.v_in_m(i)`` (or ``ctx.m_in_v(i)``), the Hazewinkel recursions, as
``Fraction``-valued ``Poly`` products applied through ``Poly.substitute``.
It shares no code with the packed-key tables of ``grading`` beyond the
recursions themselves, and writes nothing into ``ctx.memo`` beyond them.
"""

import functools

from bpcalc.errors import TruncationError
from bpcalc.grading import HAZEWINKEL_MAX_INDEX, Poly


@functools.lru_cache(maxsize=None)
def _image(ctx, exps, to_m):
    """The terms of the image of the monomial with exponents exps."""
    source, target = (ctx.V, ctx.M) if to_m else (ctx.M, ctx.V)
    gen = ctx.v_in_m if to_m else ctx.m_in_v
    prod = Poly.constant(target, 1)
    for i, e in enumerate(exps, start=1):
        if e:
            if i > HAZEWINKEL_MAX_INDEX:
                raise TruncationError(f"no substitution image for {source.name(i)}")
            prod = prod * gen(i) ** e
    return prod.terms


def to_m(ctx, x):
    """The v-polynomial x in the rational m-basis."""
    assert x.alphabet == ctx.V
    return x.substitute(lambda exps: _image(ctx, exps, True), ctx.M)


def to_v(ctx, x):
    """The m-polynomial x in the v-basis."""
    assert x.alphabet == ctx.M
    return x.substitute(lambda exps: _image(ctx, exps, False), ctx.V)
