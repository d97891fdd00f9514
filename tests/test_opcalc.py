import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bpcalc import cli, opcalc
from bpcalc.arith import padic_valuation
from bpcalc.errors import DegreeError, NotDivisibleError
from bpcalc.grading import Context, Poly, TermIdeal, reduce_mod
from bpcalc.hopf import OperationExpr
from bpcalc.report import Report
from bpcalc.opcalc import (
    CyclicModule,
    ModuleElement,
    _plocal_smith,
    act,
    apply_matrix,
    betap_pipeline,
    check_complex,
    d1_misprint,
    d_matrices,
    default_gamma1_spec,
    ext1_invariant,
    gamma1_pipeline,
    indeterminacy_scan,
    lemma75_check,
    lemma77_check,
    verify_lemma_7_3,
    verify_lemma_7_9,
)


@pytest.fixture(scope="module")
def ctx7():
    return Context(prime=7)


@pytest.fixture(scope="module")
def ctx5():
    return Context(prime=5)


def _mod_gbar1(ctx):
    return CyclicModule(ctx, ctx.ideal_chain(1), "gbar1")


def test_act_examples(ctx7):
    p = ctx7.prime
    M = _mod_gbar1(ctx7)
    e = M.element(ctx7.v(3))
    assert act((1,), e).coeff == -ctx7.v(2) ** p
    assert act((p,), e).is_zero()
    assert act((), e).coeff == e.coeff  # identity operation


def test_act_degree_bookkeeping(ctx7):
    # R[1] has degree q and lowers the coefficient's degree by q
    M = _mod_gbar1(ctx7)
    e = M.element(ctx7.v(3))
    out = act((1,), e)
    assert e.coeff.degree() - out.coeff.degree() == ctx7.q


def test_module_element_normal_form(ctx7):
    p = ctx7.prime
    M = CyclicModule(ctx7, ctx7.ideal_chain(0), "g")
    e = M.element((p * 12 + 2) * ctx7.v(2) + p * ctx7.v(1))
    assert e.coeff == 2 * ctx7.v(2)
    assert M.element(Poly.zero(ctx7.V)).is_zero()


def test_module_element_prints_through_the_term_printer(ctx7):
    M = CyclicModule(ctx7, ctx7.ideal_chain(0), "g1")
    v1, v2 = ctx7.v(1), ctx7.v(2)
    assert str(M.element(Poly.zero(ctx7.V))) == "0"
    assert str(M.element(Poly.constant(ctx7.V, 1))) == "g1"
    assert str(M.element(Poly.constant(ctx7.V, -1))) == "-g1"
    assert str(M.element(3 * v2)) == "3*v2*g1"
    assert str(M.element(v1 + 2 * v2)) == "(v1 + 2*v2)*g1"


def test_apply_matrix_shapes(ctx7):
    d0, d1, d2 = d_matrices(ctx7)
    M = _mod_gbar1(ctx7)
    vec = apply_matrix(d0, [M.element(ctx7.v(3))])
    assert len(vec) == 2
    with pytest.raises(ValueError):
        apply_matrix(d0, [M.element(ctx7.v(3)), M.zero()])


def test_matrix_degree_validation(ctx7):
    p, q = ctx7.prime, ctx7.q
    E = OperationExpr.word
    from bpcalc.opcalc import OpMatrix

    with pytest.raises(DegreeError):
        OpMatrix([[E(ctx7, (1,))]], [0], [p * q], name="bad").validate_degrees()
    # the printed d1 carries a degree-inconsistent entry, so d1_misprint
    # does not validate it
    with pytest.raises(DegreeError):
        d1_misprint(ctx7).validate_degrees()


def test_check_complex_corrected_and_printed(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        d0, d1, d2 = d_matrices(ctx)
        good = check_complex(ctx, [d0, d1, d2])
        assert good.passed
        bad = check_complex(ctx, [d0, d1_misprint(ctx), d2])
        assert not bad.passed
        failures = {r.id: r for r in bad.failures()}
        assert any("d2.d1-misprint" in k for k in failures)
        assert all(r.witness for r in bad.failures())


def test_lemma75_value(ctx7):
    p = ctx7.prime
    vec, report = lemma75_check(ctx7)
    assert report.passed
    assert vec[0].coeff == -ctx7.v(2) ** (p - 1)
    assert vec[1].is_zero()


def test_lemma77_value(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        vec, report = lemma77_check(ctx)
        assert report.passed
        assert vec[0].coeff == 2 * ctx.v(1) ** p * ctx.v(2) ** (p - 3)
        assert vec[1].coeff == 2 * ctx.v(1) * ctx.v(2) ** (p - 3)


def test_gamma1_pipeline_values(ctx5, ctx7):
    for ctx, exp in ((ctx5, 2), (ctx7, 4)):
        report = gamma1_pipeline(ctx)
        assert report.passed, [r.id for r in report.failures()]
        final = {r.id: r for r in report.records}["thm7.2.final"]
        assert f"-2*v2^{exp}*l" == final.computed
    # the small-prime instantiation carries the existence caveat
    rep5 = gamma1_pipeline(Context(prime=5))
    assert any(r.id == "caveat.small-prime" for r in rep5.records)
    rep7 = gamma1_pipeline(Context(prime=7))
    assert not any(r.id == "caveat.small-prime" for r in rep7.records)


# d0 reads the value h1 restricts to, so a wrong h1 fails the first-stage
# value and every stage after it; the l relation is read by the last stage
_WRONG_H1 = [
    "lemma7.5.restricted",
    "lemma7.5.value",
    "lemma7.7.restricted",
    "lemma7.7.value",
    "thm7.2.d2-value",
    "thm7.2.final",
]


@pytest.mark.parametrize(
    "relation, mutation, failing",
    [
        ("h1_restriction", {"mono_exps": (0, 0, 2)}, _WRONG_H1),
        ("h1_restriction", {"coeff": Fraction(-1)}, _WRONG_H1),
        ("l_restriction", {"coeff": Fraction(-5)}, ["thm7.2.final"]),
    ],
    ids=["h1-v3-squared", "h1-negated", "l-negated"],
)
def test_gamma1_mutated_relation_fails_a_value_record(
    monkeypatch, capsys, relation, mutation, failing
):
    original = opcalc.default_gamma1_spec

    def default_gamma1_spec(ctx):
        spec = original(ctx)
        spec[relation] = replace(spec[relation], **mutation)
        return spec

    monkeypatch.setattr(opcalc, "default_gamma1_spec", default_gamma1_spec)
    code = cli.main(["verify", "thm7.2", "--prime", "5", "--format", "json"])
    assert code == cli.EXIT_CHECK_FAILURE
    failed = [r.id for r in Report.from_json(capsys.readouterr().out).failures()]
    # the exact list also rules out a thm7.2.crashed record
    assert failed == failing


def test_generator_relation_image(ctx5):
    spec = default_gamma1_spec(ctx5)
    gbar1 = CyclicModule(ctx5, ctx5.ideal_chain(1), "gbar1")
    lbar = CyclicModule(ctx5, TermIdeal.zero(5), "lbar")
    assert sorted(spec) == [
        "g0_restriction", "g1_restriction", "h1_restriction", "l_restriction"
    ]
    assert spec["h1_restriction"].source is None  # no stage divides into h1
    assert spec["h1_restriction"].target == gbar1
    assert spec["h1_restriction"].image() == gbar1.element(ctx5.v(3))
    assert spec["l_restriction"].target == lbar
    assert spec["l_restriction"].image() == lbar.element(Poly.constant(ctx5.V, 5))


def test_act_bookkeeping_rejects_a_value_off_by_a_degree(monkeypatch, capsys):
    # an operation value one v1 too high keeps the coefficient homogeneous
    # but lowers its degree by q less than the operation's degree
    original = OperationExpr.act
    monkeypatch.setattr(
        OperationExpr, "act", lambda self, x: original(self, x) * self.ctx.v(1)
    )
    ctx = Context(prime=5)
    e = CyclicModule(ctx, ctx.ideal_chain(0), "g").element(ctx.v(2))
    with pytest.raises(DegreeError, match="^degree bookkeeping: "):
        act((1,), e)
    code = cli.main(["verify", "thm7.10", "--prime", "5", "--format", "json"])
    assert code == cli.EXIT_CHECK_FAILURE
    failed = Report.from_json(capsys.readouterr().out).failures()
    assert [r.id for r in failed] == ["thm7.10.crashed"]
    assert failed[0].witness.startswith("DegreeError: degree bookkeeping: ")


def test_act_rejects_grading_guard_violation(ctx7):
    M = _mod_gbar1(ctx7)
    # an inhomogeneous expression cannot be discharged onto the coefficient
    E = OperationExpr.word
    with pytest.raises(DegreeError):
        act(E(ctx7, (1,)) + E(ctx7, (7,)), M.element(ctx7.v(3)))


def test_indeterminacy_scan(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        p, q = ctx.prime, ctx.q
        rep = indeterminacy_scan(
            ctx,
            [(p * p - p - 3) * q, (p * p - 2 * p - 2) * q],
            ctx.ideal_chain(1),
        )
        assert rep.passed
    rep = indeterminacy_scan(ctx7, [0], ctx7.ideal_chain(0))
    assert not rep.passed  # the constant monomial is not in (p)


def test_indeterminacy_scan_refuses_a_degree_without_an_operation(ctx5):
    # two operations pair with the first two degrees; a third would get no
    # record while the config still listed it
    with pytest.raises(ValueError, match=r"\[0, 8, 16\]"):
        indeterminacy_scan(ctx5, [0, 8, 16], ctx5.ideal_chain(0))


def test_betap_pipeline(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        p = ctx.prime
        report = betap_pipeline(ctx)
        assert report.passed, [r.id for r in report.failures()]
        final = {r.id: r for r in report.records}["thm7.10.value"]
        assert final.computed == f"v1^{p - 1}*g0"


def test_betap_exact_expansion_valuations(ctx5):
    # full Cartan expansion: R[p^2](v2^p) = v1^p + terms of valuation >= p-1
    from bpcalc.hopf import r_action

    p = ctx5.prime
    exact = r_action(ctx5, (p * p,), ctx5.v(2) ** p)
    corr = exact - ctx5.v(1) ** p
    assert corr.terms
    assert all(
        padic_valuation(Fraction(c), p) >= p - 1 for c in corr.terms.values()
    )


def test_ext1_invariant(ctx5, ctx7):
    assert ext1_invariant(ctx5, 26).passed
    assert ext1_invariant(ctx7, 52).passed
    with pytest.raises(ValueError):
        ext1_invariant(ctx5, 25)  # r = p^2 excluded
    with pytest.raises(ValueError):
        ext1_invariant(ctx5, 30)  # r = p^2 + p excluded


def test_ext1_top_action_oracle(ctx5):
    # independent closed form: binom(r, p^2) p^(p^2) v1^(r - p^2)
    from bpcalc.hopf import r_action

    p = ctx5.prime
    for r in (26, 29):
        exact = r_action(ctx5, (p * p,), ctx5.v(1) ** r)
        oracle = math.comb(r, p * p) * p ** (p * p) * ctx5.v(1) ** (r - p * p)
        assert exact == oracle


def test_verify_lemma_7_9_all_r(ctx5):
    report = verify_lemma_7_9(ctx5)
    assert report.passed, [r.id for r in report.failures()]


def test_plocal_smith_basic():
    # M = [[1, 0], [0, 5]] at p=5: lattice {x : Mx integral} = Z x (1/5)Z
    vals, C = _plocal_smith([[1, 0], [0, 5]], 5)
    assert sorted(vals) == [0, 1]
    # worst valuation on coordinate 2 is -1
    worst = {}
    for k, a in enumerate(vals):
        for coord in range(2):
            if C[coord][k]:
                v = padic_valuation(C[coord][k], 5) - a
                worst[coord] = min(worst.get(coord, 0), v)
    assert min(worst.values()) == -1


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _elementary_divisor_valuations(M, p):
    """v_p of the elementary divisors d_k / d_(k-1), where d_k is the
    minimal valuation of the nonzero k x k minors."""
    m, n = len(M), len(M[0])
    d = [0]
    for k in range(1, min(m, n) + 1):
        minors = [
            _det([[M[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        ]
        vals = [padic_valuation(x, p) for x in minors if x]
        if not vals:
            break
        d.append(min(vals))
    return [b - a for a, b in zip(d, d[1:])]


@pytest.mark.parametrize("p", (3, 5))
def test_plocal_smith_against_minors(p):
    rng = random.Random(p)
    entries = (0, 0, 1, 1, -1, 2, p, p + 1, 2 * p, p * p)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        M = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        vals, C = _plocal_smith(M, p)
        assert vals == _elementary_divisor_valuations(M, p), M
        assert all(padic_valuation(c, p) >= 0 for row in C for c in row if c)
        assert padic_valuation(_det(C), p) == 0
        for k in range(n):
            image = [sum(a * row[k] for a, row in zip(Mi, C)) for Mi in M]
            if k >= len(vals):
                assert not any(image), M
                continue
            scaled = [Fraction(x, p ** vals[k]) for x in image]
            assert all(padic_valuation(x, p) >= 0 for x in scaled if x), M
            assert any(padic_valuation(x, p) == 0 for x in scaled if x), M


def test_verify_lemma_7_3(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        report = verify_lemma_7_3(ctx)
        assert report.passed, [r.id for r in report.failures()]
        table = {r.id: r for r in report.records}["lemma7.3.recomputed-table"]
        assert "v1: R[1] -> " in table.computed


def test_generator_relation_divide_checks(ctx7):
    p = ctx7.prime
    spec = default_gamma1_spec(ctx7)
    rel = spec["g1_restriction"]
    M_gbar1 = rel.target
    M_g1 = CyclicModule(ctx7, ctx7.ideal_chain(1), "g1")
    e = M_gbar1.element(-ctx7.v(2) ** p)
    q = rel.divide(e)
    assert q.module == M_g1
    assert q.coeff == -ctx7.v(2) ** (p - 1)
    with pytest.raises(NotDivisibleError):
        rel.divide(M_gbar1.element(ctx7.v(3)))


def test_gamma1_final_not_divisible_is_a_failed_record(ctx7, monkeypatch):
    # -2p v2^(p-3) lbar is not divisible by p^2: a failed record, not a raise
    p = ctx7.prime
    spec = default_gamma1_spec(ctx7)
    spec["l_restriction"] = replace(spec["l_restriction"], coeff=Fraction(p * p))
    monkeypatch.setattr(opcalc, "default_gamma1_spec", lambda ctx: spec)
    report = gamma1_pipeline(ctx7)
    final = {r.id: r for r in report.records}["thm7.2.final"]
    assert not final.status
    assert "not divisible" in final.witness
    assert cli.main(["verify", "thm7.2", "--prime", "7"]) == cli.EXIT_CHECK_FAILURE


def test_pipeline_determinism(ctx7):
    a = gamma1_pipeline(ctx7)
    b = gamma1_pipeline(Context(prime=7))
    strip = lambda rep: [
        (r.id, r.anchor, r.status, r.expected, r.computed, r.modulus, r.witness)
        for r in rep.records
    ]
    assert strip(a) == strip(b)
