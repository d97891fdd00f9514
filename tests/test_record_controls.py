"""A control for every record that compares a computed value with an exact
expected one (``Report.expect``), and for these ``Report.check`` records:
lemma7.9's coboundary and integrality tables, lemma 7.3's congruences
and thm7.10.exact, lemma 7.1's relations, thm7.2's two indeterminacy
scans, the structural ``coassociativity``
record at each k it covers, and the structural coherence sweep on the
closed-form Cartan tables.  A control is a named perturbation of a
table entry, a relation or an operation value under which a single ``verify
<target>`` at p = 5 exits 1 with that record failing and no
``<target>.crashed`` record.  The controls are hand-named mutants of the
inputs the records read, in the manner of mutation analysis (DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer 1978).
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from bpcalc import cli, hopf, opcalc
from bpcalc.grading import Context, Poly, _pack, monomials_of_degree, monomials_up_to
from bpcalc.report import Report


def r_action_scaled(hit, factor=2):
    """opcalc's R_I(x) times factor wherever hit(ctx, I, x)."""

    def perturb(monkeypatch):
        original = opcalc.r_action

        def r_action(ctx, index, x):
            value = original(ctx, index, x)
            return factor * value if hit(ctx, tuple(index), x) else value

        monkeypatch.setattr(opcalc, "r_action", r_action)

    return perturb


def r_action_of_index(hit, other):
    """opcalc's R_I(x) replaced by R_other(x) wherever hit(ctx, I, x): a
    slipped index, whose value lies in another degree."""

    def perturb(monkeypatch):
        original = opcalc.r_action

        def r_action(ctx, index, x):
            return original(ctx, other if hit(ctx, tuple(index), x) else index, x)

        monkeypatch.setattr(opcalc, "r_action", r_action)

    return perturb


def d_entry_doubled(k, i, j):
    """Entry (i, j) of d_k doubled; its degree, and so the shifts, stay."""

    def perturb(monkeypatch):
        original = opcalc.d_matrices

        def d_matrices(ctx):
            matrices = list(original(ctx))
            entries = [list(row) for row in matrices[k].entries]
            entries[i][j] = entries[i][j].scale(2)
            matrices[k] = replace(matrices[k], entries=entries)
            return tuple(matrices)

        monkeypatch.setattr(opcalc, "d_matrices", d_matrices)

    return perturb


def gamma1_relation_negated(name):
    """The coefficient of one default_gamma1_spec relation negated."""

    def perturb(monkeypatch):
        original = opcalc.default_gamma1_spec

        def default_gamma1_spec(ctx):
            spec = original(ctx)
            spec[name] = replace(spec[name], coeff=-spec[name].coeff)
            return spec

        monkeypatch.setattr(opcalc, "default_gamma1_spec", default_gamma1_spec)

    return perturb


def module_action_doubled(monkeypatch):
    """opcalc.act's value on module elements doubled."""
    original = opcalc.act

    def act(op, e):
        out = original(op, e)
        return replace(out, coeff=2 * out.coeff)

    monkeypatch.setattr(opcalc, "act", act)


def in_basis_doubled(monkeypatch):
    """The dual-basis expansion of every operation expression doubled."""
    original = hopf.OperationExpr.in_basis
    monkeypatch.setattr(
        hopf.OperationExpr, "in_basis", lambda self, bound: original(self, bound).scale(2)
    )


def relation_without_its_last_term(n):
    """Relation n of hopf.commutator_relations with its last term dropped."""

    def perturb(monkeypatch):
        original = hopf.commutator_relations

        def commutator_relations(ctx):
            relations = original(ctx)
            name, expr = relations[n]
            relations[n] = (name, replace(expr, parts=expr.parts[:-1]))
            return relations

        monkeypatch.setattr(hopf, "commutator_relations", commutator_relations)

    return perturb


def scanned_image_outside(index, degree_q):
    """v2^(p-3) added to the value of R[index(p)] on the first monomial of
    degree degree_q(p) * q; the added term is homogeneous and outside
    (p, v1)."""

    def perturb(monkeypatch):
        original = hopf.OperationExpr.act

        def act(self, x):
            value = original(self, x)
            ctx, p = self.ctx, self.ctx.prime
            if self.parts != ((1, ((index(p),),)),):
                return value
            first = monomials_of_degree(degree_q(p) * ctx.q, ctx.V)[0]
            hit = x == Poly(ctx.V, {first.exps: 1})
            return value + ctx.v(2) ** (p - 3) if hit else value

        monkeypatch.setattr(hopf.OperationExpr, "act", act)

    return perturb


# record id -> (verify target, perturbation, the records that fail, when
# more than the one)
CONTROLS = {
    "lemma7.3.R1v1": (
        "lemma7.3",
        r_action_scaled(lambda c, I, x: I == (1,) and x == c.v(1)),
    ),
    "lemma7.3.R1v2": (
        "lemma7.3",
        r_action_scaled(lambda c, I, x: I == (1,) and x == c.v(2)),
    ),
    "lemma7.3.R01v2": (
        "lemma7.3",
        r_action_scaled(lambda c, I, x: I == (0, 1) and x == c.v(2)),
    ),
    "lemma7.5.restricted": (
        "lemma7.5",
        d_entry_doubled(0, 0, 0),
        ["lemma7.5.restricted", "lemma7.5.value"],
    ),
    "lemma7.5.value": ("lemma7.5", gamma1_relation_negated("g1_restriction")),
    "lemma7.7.restricted": (
        "lemma7.7",
        d_entry_doubled(1, 0, 0),
        ["lemma7.7.restricted", "lemma7.7.value"],
    ),
    "lemma7.7.value": ("lemma7.7", gamma1_relation_negated("g0_restriction")),
    "thm7.2.d2-value": (
        "thm7.2",
        d_entry_doubled(2, 0, 0),
        ["thm7.2.d2-value", "thm7.2.final"],
    ),
    "thm7.10.restricted": (
        "thm7.10",
        module_action_doubled,
        ["thm7.10.restricted", "thm7.10.value"],
    ),
    "thm7.10.value": ("thm7.10", gamma1_relation_negated("g0_restriction")),
    "basis-expansion[R[1]R[p]-R[p]R[1]]": ("lemma7.1", in_basis_doubled),
    **{
        f"lemma7.9.top-action[r={r}]": (
            "lemma7.9",
            r_action_scaled(
                lambda c, I, x, r=r: I == (c.prime**2,) and x == c.v(1) ** r
            ),
        )
        for r in range(26, 30)  # p^2 < r < p^2 + p at p = 5
    },
}

# ``Report.check`` records whose status compares the one-index R_I(x)
# values of lemma7.9 with a congruence table or an exact linear system.
# integrality-system[r] cannot fail alone: p does not divide r, so once every
# row of coboundary-table[r] holds mod p, row R1 already forces integral c_ij
# and p-integral c; its control makes one column divisible by p (d0 of
# v1^(r-p-1) v2 times p), which breaks both.
CHECK_CONTROLS = {
    **{
        f"lemma7.9.coboundary-table[r={r}]": (
            "lemma7.9",
            r_action_scaled(lambda c, I, x, r=r: I == (1,) and x == c.v(1) ** r),
        )
        for r in range(26, 30)
    },
    **{
        f"lemma7.9.integrality-system[r={r}]": (
            "lemma7.9",
            r_action_scaled(lambda c, I, x, r=r: x == c.v(1) ** (r - 6) * c.v(2), 5),
            [f"lemma7.9.coboundary-table[r={r}]", f"lemma7.9.integrality-system[r={r}]"],
        )
        for r in range(26, 30)
    },
}

# ``Report.check`` records that hold a one-index R_I(x) to a congruence:
# lemma 7.3's on v2 and v3 and thm7.10.exact's on v2^p.  Each R[i] v2,
# 1 < i <= p + 1, has p-adic valuation exactly its modulus's at p = 5, so
# dividing it by p fails its record.  lemma7.3.Rpv3 holds for every value
# of its degree (``test_rpv3_congruence_holds_in_its_degree_alone``): only a
# value of another degree, R[1] v3 here, can fail it.
CONGRUENCE_CONTROLS = {
    "lemma7.3.Rpv2": (
        "lemma7.3",
        r_action_scaled(lambda c, I, x: I == (c.prime,) and x == c.v(2)),
    ),
    **{
        f"lemma7.3.R{i}v2": (
            "lemma7.3",
            r_action_scaled(lambda c, I, x, i=i: I == (i,) and x == c.v(2), Fraction(1, 5)),
        )
        for i in range(2, 5)  # 1 < i < p at p = 5
    },
    "lemma7.3.Rp1v2": (
        "lemma7.3",
        r_action_scaled(lambda c, I, x: I == (c.prime + 1,) and x == c.v(2), Fraction(1, 5)),
    ),
    "lemma7.3.R1v3": (
        "lemma7.3",
        r_action_scaled(lambda c, I, x: I == (1,) and x == c.v(3)),
    ),
    "lemma7.3.Rpv3": (
        "lemma7.3",
        r_action_of_index(lambda c, I, x: I == (c.prime,) and x == c.v(3), (1,)),
    ),
    "thm7.10.exact": (
        "thm7.10",
        r_action_scaled(lambda c, I, x: I == (c.prime**2,) and x == c.v(2) ** c.prime),
    ),
}

# ``Report.check`` records that scan a window for a witness: record id ->
# (verify target, perturbation, the one witness it leaves)
SCAN_CONTROLS = {
    "relation[R[1]R[p] - R[p]R[1] = R[0,1]]": (
        "lemma7.1", relation_without_its_last_term(0), "t^(0, 1): residual 1"
    ),
    "relation[R[1]R[0,1] - R[0,1]R[1] = 0]": (
        "lemma7.1", relation_without_its_last_term(1), "t^(1, 1): residual 1"
    ),
    "relation[R[p]R[0,1] - R[0,1]R[p] = 0]": (
        "lemma7.1", relation_without_its_last_term(2), "t^(5, 1): residual 1"
    ),
    "relation[R[p]R[1]R[1] - 2 R[1]R[p]R[1] + R[1]R[1]R[p] = 0]": (
        "lemma7.1", relation_without_its_last_term(3), "t^(1, 1): residual -2"
    ),
    "relation[R[p]R[p]R[1] - 2 R[p]R[1]R[p] + R[1]R[p]R[p] = 0]": (
        "lemma7.1", relation_without_its_last_term(4), "t^(5, 1): residual -7"
    ),
    # R[p] in degree (p^2-p-3)q, R[1] in degree (p^2-2p-2)q
    "thm7.2.indeterminacy[deg=136]": (
        "thm7.2",
        scanned_image_outside(lambda p: p, lambda p: p * p - p - 3),
        "R[5](v1^5*v2^2) outside (p, v1)",
    ),
    "thm7.2.indeterminacy[deg=104]": (
        "thm7.2",
        scanned_image_outside(lambda p: 1, lambda p: p * p - 2 * p - 2),
        "R[1](v1*v2^2) outside (p, v1)",
    ),
}


def _verify(target, capsys):
    code = cli.main(["verify", target, "--prime", "5", "--format", "json"])
    return code, Report.from_json(capsys.readouterr().out)


ALL_CONTROLS = {**CONTROLS, **CHECK_CONTROLS, **CONGRUENCE_CONTROLS}


@pytest.mark.parametrize("record", sorted(ALL_CONTROLS))
def test_record_control(monkeypatch, capsys, record):
    target, perturb, *failing = ALL_CONTROLS[record]
    perturb(monkeypatch)
    code, report = _verify(target, capsys)
    assert code == cli.EXIT_CHECK_FAILURE
    # the exact list also rules out a <target>.crashed record
    assert [r.id for r in report.failures()] == (failing[0] if failing else [record])


@pytest.mark.parametrize("k", [1, 2])
def test_coassociativity_control(monkeypatch, capsys, k):
    """The structural record covers each k it names: coassociativity
    failing at k alone fails that record and no other."""
    original = hopf.coassociativity_check
    monkeypatch.setattr(
        hopf, "coassociativity_check", lambda ctx, j: j != k and original(ctx, j)
    )
    code, report = _verify("structural", capsys)
    assert code == cli.EXIT_CHECK_FAILURE
    assert [r.id for r in report.failures()] == ["coassociativity"]


def rtable_entry_raised(exps, key):
    """1 added to the entry at key of the closed-form Cartan table of the
    m-monomial exps, ``ctx.memo["rtable"][exps]``, once the right unit's
    generators are built; only the Cartan side reads that table."""

    def perturb(ctx):
        for i in (1, 2, 3):
            hopf._eta_v_generator(ctx, i)
        hopf._mono_action_table(ctx, exps)
        ctx.memo["rtable"][exps][key] += 1

    return perturb


@pytest.mark.parametrize("exps", [(1,), (0, 1), (0, 0, 1), (2, 1)])
def test_coherence_control_on_a_closed_form_table(exps):
    """Any one entry of the table of m^exps raised by 1 fails the sweep at
    the first window monomial whose m-expansion contains m^exps."""
    fresh = Context(prime=5)
    first = next(
        str(mono)
        for mono in monomials_up_to(2 * (5**3 - 1), fresh.V)
        if _pack(exps) in (k for k, _ in hopf._m_terms(fresh, Poly(fresh.V, {mono.exps: 1})))
    )
    for key in list(hopf._mono_action_table(fresh, exps)):
        ctx = Context(prime=5)
        rtable_entry_raised(exps, key)(ctx)
        report = hopf.verify_structural(ctx)
        assert [r.id for r in report.failures()] == ["cartan-right-unit-coherence"]
        witness = report.failures()[0].witness
        assert witness.split("; ")[0].split(":")[0] == first, (key, witness)


def test_structural_exits_1_on_a_raised_closed_form_table(monkeypatch, capsys):
    original = hopf.verify_structural

    def verify_structural(ctx):
        rtable_entry_raised((0, 1), _pack((0, 1)))(ctx)  # R_0 m2 = 2 m2
        return original(ctx)

    monkeypatch.setattr(hopf, "verify_structural", verify_structural)
    code, report = _verify("structural", capsys)
    assert code == cli.EXIT_CHECK_FAILURE
    assert [r.id for r in report.failures()] == ["cartan-right-unit-coherence"]


@pytest.mark.parametrize("record", sorted(SCAN_CONTROLS))
def test_scan_control(monkeypatch, capsys, record):
    target, perturb, witness = SCAN_CONTROLS[record]
    perturb(monkeypatch)
    code, report = _verify(target, capsys)
    assert code == cli.EXIT_CHECK_FAILURE
    assert [(r.id, r.witness) for r in report.failures()] == [(record, witness)]


def test_every_expect_record_has_a_control(monkeypatch, capsys):
    seen = []
    original = Report.expect

    def expect(self, id, *args, **kw):
        seen.append(id)
        return original(self, id, *args, **kw)

    monkeypatch.setattr(Report, "expect", expect)
    code, report = _verify("all", capsys)
    assert code == 0 and report.passed
    assert sorted(seen) == sorted(CONTROLS)


def test_every_lemma79_table_record_has_a_control(capsys):
    code, report = _verify("lemma7.9", capsys)
    assert code == 0
    tables = ("coboundary-table", "integrality-system")
    ids = [r.id for r in report.records if any(t in r.id for t in tables)]
    assert sorted(ids) == sorted(CHECK_CONTROLS)


def test_every_relation_and_indeterminacy_record_has_a_control(capsys):
    ids = []
    for target in ("lemma7.1", "thm7.2"):
        code, report = _verify(target, capsys)
        assert code == 0
        scans = ("relation[", "indeterminacy[")
        ids += [r.id for r in report.records if any(t in r.id for t in scans)]
    assert sorted(ids) == sorted(SCAN_CONTROLS)


def test_every_congruence_record_has_a_control(capsys):
    # every lemma7.3 record but the expect ones and the emitted table, and
    # thm7.10.exact
    ids = []
    for target, prefix in (("lemma7.3", "lemma7.3."), ("thm7.10", "thm7.10.exact")):
        code, report = _verify(target, capsys)
        assert code == 0
        ids += [r.id for r in report.records if r.id.startswith(prefix)]
    emitted = {"lemma7.3.recomputed-table"}
    assert sorted(set(ids) - set(CONTROLS) - emitted) == sorted(CONGRUENCE_CONTROLS)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_rpv3_congruence_holds_in_its_degree_alone(p):
    """R[p] v3 lies in degree deg(v3) - p q = (p^2 + 1)q, where every
    monomial has v1-exponent >= 2: any value of that degree is 0 mod
    (p, v1), so lemma7.3.Rpv3 fails only on a value of another degree."""
    ctx = Context(prime=p)
    monos = monomials_of_degree((p * p + 1) * ctx.q, ctx.V)
    assert monos and all(m.exps[0] >= 2 for m in monos)
