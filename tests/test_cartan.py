"""The closed-form Cartan tables against the Cartan formula applied one
factor at a time, and the memory of deep powers."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from bpcalc import grading, hopf
from bpcalc.cli import main
from bpcalc.grading import Context, _trim, monomials_up_to


def walk_oracle(p, exps, memo):
    """R_J values on the m-monomial by the Cartan formula, one factor at a
    time, as a flat table {packed m-exponents + packed J: count} (the key
    layout of ``hopf``'s tables).  A table strips one factor of the highest
    generator, R_(p^a e_(i-a)) m_i = m_a for a < i and R_0 m_i = m_i, so the
    build walks down to the nearest suffix in memo and back up; the actions
    are written here from that formula, not read from ``hopf``."""
    exps = _trim(exps)
    pending = []
    while exps not in memo:
        if not exps:
            memo[()] = {0: 1}
            break
        pending.append(exps)
        exps = _trim(exps[:-1] + (exps[-1] - 1,))
    table = memo[exps]
    for exps in reversed(pending):
        i = len(exps)
        actions = [_m(i)]  # R_0 m_i = m_i
        for a in range(i):
            index = (0,) * (i - a - 1) + (p**a,)
            actions.append(_m(a) + grading._pack(index, grading._T_SHIFT))
        rest, table = table, {}
        for k, c in rest.items():
            for d in actions:
                table[k + d] = table.get(k + d, 0) + c
        memo[exps] = table
    return table


def _m(i):
    return grading._pack((0,) * (i - 1) + (1,)) if i else 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_closed_form_tables_match_the_cartan_formula_oracle(p):
    ctx, memo = Context(prime=p, truncation=3), {}
    indices = [
        (1,), (p,), (0, 1), (p * p,), (1, 1), (p, 1), (0, 0, 1),
        (0, p),  # m3 and m2 both reach place 2
        (0, 0, 0, 1),  # no place past 3 is reached from m1..m3
        (1 << 16,),  # past the 16-bit key field
    ]
    monos = monomials_up_to(4 * (p**3 - 1), ctx.M)
    assert (0, 0, 2) in {m.exps for m in monos}  # 2 deg m3 = 4(p^3 - 1)
    for mono in monos:
        want = walk_oracle(p, mono.exps, memo)
        assert hopf._mono_action_table(ctx, mono.exps) == want, mono.exps
        by_index = {}
        for k, c in want.items():
            by_index.setdefault(k >> grading._T_SHIFT, {})[k] = c
        for index in indices:
            got = hopf._cartan_m(ctx, [(grading._pack(mono.exps), 1)], index)
            # an entry past the field packs onto another index: no term
            key = grading._pack(index) if max(index) <= grading._FIELD_MASK else None
            assert got == by_index.get(key, {}), (mono.exps, index)
    # full tables are memoized per monomial, one-index tables not at all
    assert len(ctx.memo["rtable"]) == len(monos)
    assert set(ctx.memo) == {"_factor_actions", "rtable"}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_one_index_step_is_the_full_table_at_that_index(p):
    # every m-monomial of degree <= 2(p^3 - 1) under every index of that
    # degree or less: alone, and all in one call with mixed coefficients,
    # where the splits are bounded by the largest exponents of all terms
    ctx = Context(prime=p)
    bound = 2 * (p**3 - 1)
    monos = [m.exps for m in monomials_up_to(bound, ctx.M)]
    by_index = {}  # (m-monomial, packed J) -> its entries of the full table
    for exps in monos:
        for k, c in hopf._mono_action_table(ctx, exps).items():
            by_index.setdefault((exps, k >> grading._T_SHIFT), {})[k] = c
    coeffs = [1, -2, 3, Fraction(1, p), Fraction(-5, 2)]
    terms = [(grading._pack(e), coeffs[n % len(coeffs)]) for n, e in enumerate(monos)]
    for index in (m.exps for m in monomials_up_to(bound, ctx.T)):
        jk, want = grading._pack(index), {}
        for exps, (key, c) in zip(monos, terms):
            table = by_index.get((exps, jk), {})
            assert hopf._cartan_m(ctx, [(key, 1)], index) == table, (exps, index)
            for k, n in table.items():
                want[k] = want.get(k, 0) + c * n
        got = hopf._cartan_m(ctx, terms, index)
        assert {k: c for k, c in got.items() if c} == {k: c for k, c in want.items() if c}


def test_one_index_on_a_deep_m1_power():
    # R_(k)(m1^n) = C(n, k) m1^(n-k): one term, whatever n is
    ctx, n = Context(prime=5), 20000
    for k in (1, 2, 5, 25, 19999, 20000):
        table = hopf._cartan_m(ctx, [(grading._pack((n,)), 1)], (k,))
        key = grading._pack((n - k,)) + grading._pack((k,), grading._T_SHIFT)
        assert table == {key: math.comb(n, k)}
    assert hopf._cartan_m(ctx, [(grading._pack((n,)), 1)], (n + 1,)) == {}
    assert not ctx.memo["rtable"]


def test_eval_of_a_deep_power_stays_small(capsys):
    tracemalloc.start()
    try:
        code = main(["eval", "--prime", "5", "--", "R[1]R[p]", "v1^20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "8327085103932305937187500000*v1^19994\n"
    assert peak < 2 << 20, peak
