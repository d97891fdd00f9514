"""The sparse-term kernel under Poly, TPoly, TensorPoly and OperationCombo,
checked against sympy polynomials and against plain dict arithmetic.

A v-polynomial is a sympy polynomial in v1..v4; a co-operation (TPoly)
one in v1..v4, t1..t4; an element of the tensor square (TensorPoly) one in
v1..v4, t1..t4 and s1..s4, where s_i is t_i on the right tensor factor.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bpcalc.grading import Context, Poly, _trim
from bpcalc.hopf import OperationCombo, TensorPoly, TPoly

sp = pytest.importorskip("sympy")

CTX = Context(prime=5)
N = CTX.truncation
V = sp.symbols(f"v1:{N + 1}")
T = sp.symbols(f"t1:{N + 1}")
S = sp.symbols(f"s1:{N + 1}")

coefs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
v_exps = st.tuples(*[st.integers(0, 2)] * 3)
t_exps = st.tuples(*[st.integers(0, 2)] * 2)
vpolys = st.dictionaries(v_exps, coefs, max_size=4).map(lambda d: Poly(CTX.V, d))
small_vpolys = st.dictionaries(v_exps, coefs, max_size=2).map(
    lambda d: Poly(CTX.V, d)
)
tpolys = st.dictionaries(t_exps, small_vpolys, max_size=3).map(
    lambda d: TPoly(CTX, d)
)
tensors = st.dictionaries(st.tuples(t_exps, t_exps), small_vpolys, max_size=3).map(
    lambda d: TensorPoly(CTX, d)
)
indices = st.tuples(*[st.integers(0, 3)] * 3)
combos = st.dictionaries(indices, small_vpolys, max_size=4).map(
    lambda d: OperationCombo(CTX, d)
)
scalars = st.one_of(st.integers(-5, 5), coefs, small_vpolys)

kernel_settings = settings(max_examples=40, deadline=None)


def _pad(exps):
    return tuple(exps) + (0,) * (N - len(exps))


def _rational(c):
    c = Fraction(c)
    return sp.Rational(c.numerator, c.denominator)


def _sympy(parts, gens):
    """sympy Poly of an iterable of (exponent tuple over gens, rational)."""
    out = {}
    for mono, c in parts:
        out[mono] = out.get(mono, 0) + _rational(c)
    if not out:
        return sp.Poly(0, *gens, domain="QQ")
    return sp.Poly.from_dict(out, *gens, domain="QQ")


def sym_v(x: Poly):
    return _sympy(((_pad(e), c) for e, c in x.terms.items()), V)


def sym_t(x: TPoly):
    return _sympy(
        (
            (_pad(v) + _pad(t), c)
            for t, coeff in x.terms.items()
            for v, c in coeff.terms.items()
        ),
        V + T,
    )


def sym_tensor(x: TensorPoly):
    return _sympy(
        (
            (_pad(v) + _pad(le) + _pad(re_), c)
            for (le, re_), coeff in x.terms.items()
            for v, c in coeff.terms.items()
        ),
        V + T + S,
    )


def assert_normal(x, nested):
    """Every key trimmed (pairs: both sides) and no zero coefficient stored."""
    for k, c in x.terms.items():
        assert k == (tuple(map(_trim, k)) if nested else _trim(k))
        assert c
        if isinstance(c, Poly):
            assert_normal(c, False)


@kernel_settings
@given(vpolys, vpolys, coefs, st.integers(0, 3))
def test_poly_ring_operations_match_sympy(x, y, c, n):
    sx, sy = sym_v(x), sym_v(y)
    results = [
        (x + y, sx + sy),
        (x - y, sx - sy),
        (-x, -sx),
        (x * c, sx * _rational(c)),
        (c * x, sx * _rational(c)),
        (x + c, sx + _rational(c)),
        (c - x, _rational(c) - sx),
        (x * y, sx * sy),
        (x**n, sx**n),
    ]
    for got, want in results:
        assert_normal(got, False)
        assert sym_v(got) == want
    assert (x - x).is_zero() and not (x - x)


@kernel_settings
@given(tpolys, tpolys, scalars)
def test_tpoly_sum_and_product_match_sympy(x, y, c):
    sx, sy = sym_t(x), sym_t(y)
    sc = sym_v(c) if isinstance(c, Poly) else _rational(c)
    for got, want in [
        (x + y, sx + sy),
        (x - y, sx - sy),
        (x * y, sx * sy),
        (x * c, sx * sc),
        (x.scale(c), sx * sc),
        (x**2, sx**2),
    ]:
        assert_normal(got, False)
        assert sym_t(got) == want


@kernel_settings
@given(tensors, tensors)
def test_tensor_sum_and_product_match_sympy(x, y):
    sx, sy = sym_tensor(x), sym_tensor(y)
    for got, want in [
        (x + y, sx + sy),
        (x - y, sx - sy),
        (x * y, sx * sy),
        (x**2, sx**2),
    ]:
        assert_normal(got, True)
        assert sym_tensor(got) == want


def _dict_sum(a, b, sign):
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + sign * c if k in out else sign * c
    return {k: c for k, c in out.items() if not c.is_zero()}


@kernel_settings
@given(combos, combos, scalars)
def test_operation_combo_linear_ops_match_dicts(a, b, c):
    assert (a + b).terms == _dict_sum(a.terms, b.terms, 1)
    assert (a - b).terms == _dict_sum(a.terms, b.terms, -1)
    scaled = {k: v * c for k, v in a.terms.items()}
    assert a.scale(c).terms == {k: v for k, v in scaled.items() if not v.is_zero()}
    for x in (a + b, a - b, a.scale(c)):
        assert_normal(x, False)


def test_kernel_refuses_mixed_kinds():
    t = TPoly(CTX, {(1,): 1})
    d = TensorPoly.unit(CTX)
    with pytest.raises(TypeError):
        t * d
    with pytest.raises(TypeError):
        d + t
    with pytest.raises(TypeError):
        OperationCombo.basis(CTX, 1) * OperationCombo.basis(CTX, 1)
    with pytest.raises(ValueError):
        t ** -1


def test_products_drop_cancelled_terms():
    v1, v2 = CTX.v(1), CTX.v(2)
    t1, t2 = TPoly(CTX, {(1,): 1}), TPoly(CTX, {(0, 1): 1})
    # the cross terms cancel: (a + b)(a - b) = a^2 - b^2
    assert ((v1 + v2) * (v1 - v2)).terms == (v1**2 - v2**2).terms
    assert len(((v1 + v2) * (v1 - v2)).terms) == 2
    assert len(((t1 + t2) * (t1 - t2)).terms) == 2
