"""Matrices of operations, cyclic graded modules, and verification pipelines.

The cyclic modules model quotients pi_*(BP)/I carried on one generator;
an element is a coefficient times that generator, and only the
coefficient is graded.  Operations act on module elements through their
coefficient, guarded by an explicit grading assertion: any R_J applied to
the generator itself (J != 0) would require a coefficient of negative
degree, hence vanishes.  Every act/apply step asserts the bookkeeping
degree(coefficient in) - degree(coefficient out) = degree(operation).

The pipelines chase the composite-complex computations down to their
final coset representatives and emit deterministic reports: every step
records its expected term list, computed term list, and modulus.  The
generator restrictions they divide by are one table,
``default_gamma1_spec``: each ``GeneratorRelation`` carries its source and
target modules, the gamma_1 chain reads all four relations, and the beta_p
pipeline reads the chain's g0 relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import padic_valuation
from .errors import DegreeError, NotDivisibleError, PreconditionError
from .grading import (
    Context,
    Poly,
    TermIdeal,
    _term,
    canonical_mod,
    divide_exact,
    format_poly,
    monomials_of_degree,
    monomials_up_to,
    reduce_mod,
)
from .hopf import (
    OperationExpr,
    format_word,
    pairing_window_q,
    r_action,
    r_action_table,
)
from .report import Report

# ---------------------------------------------------------------------------
# Modules and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicModule:
    """pi_*(BP)/I on a single generator."""

    ctx: Context
    ideal: TermIdeal
    gen_name: str

    def element(self, coeff: Poly) -> "ModuleElement":
        return ModuleElement(self, coeff)

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, Poly.zero(self.ctx.V))


@dataclass(frozen=True)
class ModuleElement:
    """coefficient * generator, coefficient in normal form mod the ideal."""

    module: CyclicModule
    coeff: Poly

    def __post_init__(self):
        reduced = canonical_mod(self.coeff, self.module.ideal)
        object.__setattr__(self, "coeff", reduced)

    def is_zero(self):
        return self.coeff.is_zero()

    def __add__(self, other):
        if other.module != self.module:
            raise ValueError("elements of different modules")
        return ModuleElement(self.module, self.coeff + other.coeff)

    def __str__(self):
        if self.coeff.is_zero():
            return "0"
        return _term(format_poly(self.coeff), self.module.gen_name)


def act(op, e: ModuleElement) -> ModuleElement:
    """Apply an operation (index tuple or OperationExpr) to a module element.

    The operation acts on the coefficient only; the grading guard asserts
    that every non-identity index raises degree, so its value on the bare
    generator would need a negative-degree coefficient and is zero.  A
    nonzero value must lower the coefficient's degree by exactly the
    operation's degree, else DegreeError.
    """
    ctx = e.module.ctx
    if isinstance(op, tuple):
        op = OperationExpr.word(ctx, op)
    if not op.indices_positive():
        raise DegreeError(
            "primitivity grading guard failed: an index of non-positive "
            "degree cannot be discharged onto the coefficient"
        )
    op_degree = op.degree()
    in_degree = e.coeff.degree()
    out = ModuleElement(e.module, op.act(e.coeff))
    if not out.is_zero() and in_degree is not None:
        if in_degree - out.coeff.degree() != op_degree:
            raise DegreeError(
                f"degree bookkeeping: coefficient degree {in_degree} went to "
                f"{out.coeff.degree()}, expected a drop of {op_degree}"
            )
    return out


@dataclass
class OpMatrix:
    """Rectangular array of operation expressions with degree shifts.

    ``entries[i][j]`` maps summand j of the source to summand i of the
    target; ``validate_degrees`` checks each entry's degree against
    tgt_shifts[i] - src_shifts[j].
    """

    entries: list
    src_shifts: list
    tgt_shifts: list
    name: str = ""

    def validate_degrees(self):
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if not entry.parts:
                    continue
                want = self.tgt_shifts[i] - self.src_shifts[j]
                got = entry.degree()
                if got != want:
                    raise DegreeError(
                        f"{self.name or 'matrix'} entry ({i+1},{j+1}) has "
                        f"degree {got}, shifts demand {want}"
                    )

    def compose(self, other: "OpMatrix") -> "OpMatrix":
        """self . other (self applied after other)."""
        zero = OperationExpr.zero(self.entries[0][0].ctx)
        cols = list(zip(*other.entries))
        entries = [
            [sum((a.compose(b) for a, b in zip(row, col)), zero) for col in cols]
            for row in self.entries
        ]
        return OpMatrix(
            entries, other.src_shifts, self.tgt_shifts, name=f"{self.name}.{other.name}"
        )


def apply_matrix(matrix: OpMatrix, vec: list) -> list:
    """Entry-wise act + sum; shapes and degrees must align."""
    if len(vec) != len(matrix.src_shifts):
        raise ValueError("vector length does not match matrix source")
    out = []
    for row in matrix.entries:
        acc = vec[0].module.zero()
        for entry, e in zip(row, vec):
            if entry.parts:
                acc = acc + act(entry, e)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# The composite complex
# ---------------------------------------------------------------------------


def d_matrices(ctx: Context):
    """The corrected matrices d0, d1, d2 of the three-stage complex.

    d1 is [[RpR1 - 2R1Rp, R1R1], [RpRp, -2RpR1 + R1Rp]]; the circulating
    misprint has entries (1,2) = R1 and (2,2) = R1Rp, which fail degree
    bookkeeping and d2 d1 = 0, and check_complex pins both facts.
    """
    p, q = ctx.prime, ctx.q
    E = OperationExpr.word
    r1, rp = (1,), (p,)
    C0 = [0]
    C1 = [q, p * q]
    C2 = [(p + 2) * q, (2 * p + 1) * q]
    C3 = [(2 * p + 2) * q]
    d0 = OpMatrix([[E(ctx, r1)], [E(ctx, rp)]], C0, C1, name="d0")
    d1 = OpMatrix(
        [
            [E(ctx, rp, r1) - E(ctx, r1, rp).scale(2), E(ctx, r1, r1)],
            [E(ctx, rp, rp), E(ctx, rp, r1).scale(-2) + E(ctx, r1, rp)],
        ],
        C1,
        C2,
        name="d1",
    )
    d2 = OpMatrix([[E(ctx, rp), E(ctx, r1)]], C2, C3, name="d2")
    for d in (d0, d1, d2):
        d.validate_degrees()
    return d0, d1, d2


def d1_misprint(ctx: Context) -> OpMatrix:
    """The circulating misprint of d1 ((1,2) = R1, (2,2) = R1Rp); not
    validated, because entry (1,2) already fails ``validate_degrees``."""
    d1 = d_matrices(ctx)[1]
    (first, _), (second, _) = d1.entries
    E, r1, rp = OperationExpr.word, (1,), (ctx.prime,)
    entries = [[first, E(ctx, r1)], [second, E(ctx, r1, rp)]]
    return replace(d1, entries=entries, name="d1-misprint")


def check_complex(ctx: Context, matrices: list) -> Report:
    """Pair every entry of each consecutive composite against all t-monomials
    of the pairing window; nonzero residuals are reported with a witness."""
    bound_q = pairing_window_q(ctx.prime)
    bound = ctx.qdeg(bound_q)
    monos = monomials_up_to(bound, ctx.T)
    report = Report(
        "complex composites vanish",
        config={"prime": ctx.prime, "window_q": bound_q},
    )
    for k in range(len(matrices) - 1):
        later, earlier = matrices[k + 1], matrices[k]
        composite = later.compose(earlier)
        report.scan(
            f"composite[{later.name}.{earlier.name}]",
            f"{later.name} {earlier.name} = 0",
            (
                f"entry ({i+1},{j+1}) at t^{mono.exps}: {format_poly(residual)}"
                for i, row in enumerate(composite.entries)
                for j, entry in enumerate(row)
                for mono in monos
                if not (residual := entry.pair_monomial(mono.exps)).is_zero()
            ),
            modulus=f"pairing window deg <= {bound_q}q",
        )
    return report


# ---------------------------------------------------------------------------
# Generator bookkeeping for the pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorRelation:
    """The source module's generator restricts to coeff * mono * target
    generator.  ``source`` is None where no stage divides into it."""

    source: CyclicModule | None
    coeff: Fraction
    mono_exps: tuple
    target: CyclicModule

    def image(self) -> ModuleElement:
        """The restricted source generator, coeff * mono * target generator."""
        V = self.target.ctx.V
        return self.target.element(Poly(V, {self.mono_exps: self.coeff}))

    def divide(self, e: ModuleElement) -> ModuleElement:
        """Rewrite an element of the target module as (quotient) * source
        generator: exact termwise division by coeff * mono, verified by
        re-multiplication modulo the target ideal."""
        return self.source.element(
            divide_exact(e.coeff, self.coeff, self.mono_exps, self.target.ideal)
        )


def _vector_str(vec) -> str:
    return "[" + "; ".join(str(e) for e in vec) + "]"


# ---------------------------------------------------------------------------
# The gamma_1 pipeline
# ---------------------------------------------------------------------------


def default_gamma1_spec(ctx: Context) -> dict:
    """The generator relations of the composite chain, the one table both
    pipelines read: the gamma_1 chain all four, the beta_p pipeline
    g0_restriction.  Each stage reads its modules off the relation it
    uses."""
    p = ctx.prime
    module = lambda k, name: CyclicModule(ctx, ctx.ideal_chain(k), name)
    gbar1, lbar = module(1, "gbar1"), CyclicModule(ctx, TermIdeal.zero(p), "lbar")
    return {
        # h1 i = v3 gbar1
        "h1_restriction": GeneratorRelation(None, Fraction(1), (0, 0, 1), gbar1),
        # g1 i = v2 gbar1
        "g1_restriction": GeneratorRelation(
            module(1, "g1"), Fraction(1), (0, 1), gbar1
        ),
        # g0 i = v1 gbar0
        "g0_restriction": GeneratorRelation(
            module(0, "g0"), Fraction(1), (1,), module(0, "gbar0")
        ),
        # l S^2i = p lbar
        "l_restriction": GeneratorRelation(module(1, "l"), Fraction(p), (), lbar),
    }


def lemma75_check(ctx: Context, report: Report | None = None):
    """First stage: d0 h1 = [-v2^(p-1); 0] g1 in pi/(p, v1)."""
    p = ctx.prime
    spec = default_gamma1_spec(ctx)
    report = report if report is not None else Report(
        "first-stage value of the composite chain", config={"prime": p}
    )
    h1, g1 = spec["h1_restriction"], spec["g1_restriction"]
    M_gbar1, M_g1 = h1.target, g1.source
    d0, _, _ = d_matrices(ctx)
    vec = apply_matrix(d0, [h1.image()])
    report.expect(
        "lemma7.5.restricted",
        "[R1; Rp] v3 gbar1 = [-v2^p; 0] gbar1 mod (p, v1)",
        vec,
        [M_gbar1.element(-ctx.v(2) ** p), M_gbar1.zero()],
        show=_vector_str,
        modulus=str(M_gbar1.ideal),
    )
    g1_vec = [g1.divide(e) for e in vec]
    report.expect(
        "lemma7.5.value",
        "d0 h1 = [-v2^(p-1); 0] g1",
        g1_vec,
        [M_g1.element(-ctx.v(2) ** (p - 1)), M_g1.zero()],
        show=_vector_str,
        modulus=str(M_g1.ideal),
    )
    return g1_vec, report


def lemma77_check(ctx: Context, report: Report | None = None):
    """Second stage: the secondary bracket value
    [2 v1^p v2^(p-3); 2 v1 v2^(p-3)] g0 mod p, via the lift
    xi = [-v2^(p-1) gbar0; 0] and -d1 xi."""
    p = ctx.prime
    report = report if report is not None else Report(
        "second-stage value of the composite chain", config={"prime": p}
    )
    g1_vec, _ = lemma75_check(ctx, report)
    g0 = default_gamma1_spec(ctx)["g0_restriction"]
    M_gbar0, M_g0 = g0.target, g0.source
    xi = [M_gbar0.element(e.coeff) for e in g1_vec]  # lift along gbar0 -> g1
    _, d1, _ = d_matrices(ctx)
    minus_d1_xi = [
        ModuleElement(e.module, -e.coeff) for e in apply_matrix(d1, xi)
    ]
    report.expect(
        "lemma7.7.restricted",
        "-d1 [-v2^(p-1) gbar0; 0] = "
        "[2 v1^(p+1) v2^(p-3); 2 v1^2 v2^(p-3)] gbar0 mod p",
        minus_d1_xi,
        [
            M_gbar0.element(2 * ctx.v(1) ** (p + 1) * ctx.v(2) ** (p - 3)),
            M_gbar0.element(2 * ctx.v(1) ** 2 * ctx.v(2) ** (p - 3)),
        ],
        show=_vector_str,
        modulus=str(M_gbar0.ideal),
    )
    g0_vec = [g0.divide(e) for e in minus_d1_xi]
    report.expect(
        "lemma7.7.value",
        "secondary bracket = [2 v1^p v2^(p-3); 2 v1 v2^(p-3)] g0 mod p "
        "(uses g0 i = v1 gbar0 for the exponent drop)",
        g0_vec,
        [
            M_g0.element(2 * ctx.v(1) ** p * ctx.v(2) ** (p - 3)),
            M_g0.element(2 * ctx.v(1) * ctx.v(2) ** (p - 3)),
        ],
        show=_vector_str,
        modulus=str(M_g0.ideal),
        note="the restriction g0 i = v1 gbar0 is the degree-consistent "
        "reading; a bare g0 i = gbar0 cannot drop v1^(p+1) to v1^p",
    )
    return g0_vec, report


def indeterminacy_scan(ctx: Context, degrees: list, ideal: TermIdeal) -> Report:
    """Exhaustively enumerate monomials in each listed degree and assert
    containment in the ideal, before and after the paired operation:
    R_(p) in the first degree, R_(1) in the second; more than two degrees
    is a ValueError."""
    ops = [OperationExpr.word(ctx, (ctx.prime,)), OperationExpr.word(ctx, (1,))]
    if len(degrees) > len(ops):
        raise ValueError(f"indeterminacy_scan: more degrees than operations, {degrees}")
    report = Report(
        "indeterminacy containment by exhaustive monomial enumeration",
        config={"prime": ctx.prime, "degrees": list(degrees), "ideal": str(ideal)},
    )
    for degree, op in zip(degrees, ops):
        monos = monomials_of_degree(degree, ctx.V)
        bad = []
        min_v1 = None
        for mono in monos:
            e1 = mono.exps[0] if mono.exps else 0
            min_v1 = e1 if min_v1 is None else min(min_v1, e1)
            x = Poly(ctx.V, {mono.exps: 1})
            if reduce_mod(x, ideal):
                bad.append(f"{mono} itself outside {ideal}")
                continue
            image = op.act(x)
            if reduce_mod(image, ideal):
                bad.append(f"{format_word(op.parts[0][1])}({mono}) outside {ideal}")
        report.check(
            id=f"indeterminacy[deg={degree}]",
            anchor=f"all monomials of degree {degree} and their images under "
            f"{op} lie in {ideal}",
            status=not bad,
            computed=f"{len(monos)} monomials, min v1-exponent {min_v1}",
            modulus=str(ideal),
            witness="; ".join(bad[:3]),
        )
    return report


def gamma1_pipeline(ctx: Context) -> Report:
    """The full chain: first-stage value, lift, second-stage value,
    indeterminacy containment, final coset representative
    -2 v2^(p-3) l mod (p, v1)."""
    p, q = ctx.prime, ctx.q
    if p < 5:
        raise PreconditionError("the chain needs p >= 5 (exponent p-3 >= 2)")
    report = Report(
        "tertiary-operation value on the two-cell complex",
        config={"prime": p, "truncation": ctx.truncation},
    )
    if p < 7:
        report.check(
            id="caveat.small-prime",
            anchor="the geometric four-stage complex needs p >= 7; the "
            "operation calculus below is well-defined for p >= 5",
            status=True,
            note="instantiated at p = %d for cross-checking only" % p,
        )
    g0_vec, _ = lemma77_check(ctx, report)

    scan = indeterminacy_scan(
        ctx,
        [(p * p - p - 3) * q, (p * p - 2 * p - 2) * q],
        ctx.ideal_chain(1),
    )
    report.extend(scan, prefix="thm7.2")

    l_rel = default_gamma1_spec(ctx)["l_restriction"]
    M_lbar, M_l = l_rel.target, l_rel.source
    xi2 = [M_lbar.element(e.coeff) for e in g0_vec]  # lift along lbar -> g0
    _, _, d2 = d_matrices(ctx)
    val = apply_matrix(d2, xi2)[0]
    minus_d2_xi = ModuleElement(val.module, -val.coeff)
    mixed = ctx.ideal((2, ()), (1, (1,)))  # (p^2, p*v1)
    reduced = canonical_mod(minus_d2_xi.coeff, mixed)
    report.expect(
        "thm7.2.d2-value",
        "-d2 [2 v1^p v2^(p-3) lbar; 2 v1 v2^(p-3) lbar] = "
        "-2p v2^(p-3) lbar mod (p^2, p v1)",
        reduced,
        -2 * p * ctx.v(2) ** (p - 3),
        show=lambda c: format_poly(c) + "*lbar",
        modulus=str(mixed),
    )

    expected_final = M_l.element(-2 * ctx.v(2) ** (p - 3))
    try:
        final, witness = l_rel.divide(M_lbar.element(reduced)), ""
    except NotDivisibleError as exc:
        final, witness = None, str(exc)
    report.check(
        id="thm7.2.final",
        anchor="the operation value is -2 v2^(p-3) l mod (p, v1) l",
        status=final is not None and final.coeff == expected_final.coeff,
        expected=str(expected_final),
        computed="not divisible" if final is None else str(final),
        modulus=str(M_l.ideal),
        witness=witness,
    )
    return report


# ---------------------------------------------------------------------------
# The beta_p pipeline
# ---------------------------------------------------------------------------


def betap_pipeline(ctx: Context) -> Report:
    """R_(p^2) h = v1^(p-1) g0 in pi/(p), via the Cartan expansion of
    R_(p^2)(v2^p) and the restriction g0 i = v1 gbar0."""
    p = ctx.prime
    if p < 5:
        raise PreconditionError("the pipeline needs p >= 5")
    report = Report(
        "order-p invariant value on the pinch complex",
        config={"prime": p, "truncation": ctx.truncation},
    )
    g0 = default_gamma1_spec(ctx)["g0_restriction"]
    M_gbar0, M_g0 = g0.target, g0.source

    exact = r_action(ctx, (p * p,), ctx.v(2) ** p)
    correction = exact - ctx.v(1) ** p
    vals = [
        padic_valuation(Fraction(c), p) for c in correction.terms.values()
    ]
    ok = all(v >= p - 1 for v in vals)
    report.check(
        id="thm7.10.exact",
        anchor="R[p^2](v2^p) = v1^p + terms of p-valuation >= p-1 "
        "(Cartan expansion over compositions of p^2 into p parts <= p+1)",
        status=ok,
        expected="v1^p mod p^(p-1)",
        computed=f"v1^p + {len(correction.terms)} correction terms, "
        f"min valuation {min(vals) if vals else 'n/a'}",
    )

    h_image = M_gbar0.element(ctx.v(2) ** p)
    value = act((p * p,), h_image)
    report.expect(
        "thm7.10.restricted",
        "R[p^2](v2^p gbar0) = v1^p gbar0 mod p",
        value,
        M_gbar0.element(ctx.v(1) ** p),
        modulus=str(M_gbar0.ideal),
    )
    report.expect(
        "thm7.10.value",
        "R[p^2] h = v1^(p-1) g0 in pi/(p)",
        g0.divide(value),
        M_g0.element(ctx.v(1) ** (p - 1)),
        modulus=str(M_g0.ideal),
    )
    return report


# ---------------------------------------------------------------------------
# The Ext^1 invariant (two-cell complexes in the order-p range)
# ---------------------------------------------------------------------------


def _plocal_smith(rows: list, p: int):
    """Smith normal form over Z_(p): returns (pivot valuations, C) with
    R*M*C diagonal for some R invertible over Z_(p), and C invertible over
    Z_(p), the column operations.  R is not built: the row step would
    subtract from each later row what the column step already subtracts,
    and column k is never read again.  Entries are exact Fractions; pivots
    are chosen with minimal p-valuation."""
    M = [list(map(Fraction, row)) for row in rows]
    mrows, ncols = len(M), len(M[0]) if M else 0
    C = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    vals = []
    k = 0
    while k < min(mrows, ncols):
        pivot_pos, pivot_val = None, None
        for i in range(k, mrows):
            for j in range(k, ncols):
                if M[i][j] == 0:
                    continue
                v = padic_valuation(M[i][j], p)
                if pivot_val is None or v < pivot_val:
                    pivot_pos, pivot_val = (i, j), v
        if pivot_pos is None:
            break
        pi, pj = pivot_pos
        M[k], M[pi] = M[pi], M[k]
        for row in M:
            row[k], row[pj] = row[pj], row[k]
        for row in C:
            row[k], row[pj] = row[pj], row[k]
        pivot = M[k][k]
        for j in range(k + 1, ncols):
            if M[k][j] == 0:
                continue
            f = M[k][j] / pivot
            for i in range(mrows):
                M[i][j] -= f * M[i][k]
            for i in range(ncols):
                C[i][j] -= f * C[i][k]
        vals.append(pivot_val)
        k += 1
    return vals, C


def ext1_invariant(ctx: Context, r: int) -> Report:
    """For p^2 < r < p^2 + p: (a) R[p^2](v1^r) = 0 mod p^p against the
    closed-form oracle; (b) the coboundary congruence table for
    d0 = [R1; Rp; R[p^2]] on v1^i v2^j of degree rq; (c) the exact linear
    system forcing integral c_ij and p-integral c."""
    p, q = ctx.prime, ctx.q
    if not p * p < r < p * p + p:
        raise ValueError(f"r must satisfy p^2 < r < p^2 + p, got r={r} at p={p}")
    report = Report(
        "order-p extension invariant is well-defined",
        config={"prime": p, "r": r},
    )

    # the rows d0 = [R1; Rp; R[p^2]] of each column, computed once and read
    # by (a), (b) and (c); column 0 is v1^r
    ops = ((1,), (p,), (p * p,))
    columns = [("c", r, 0)]
    for j in range(1, p):
        i = r - j * (p + 1)
        if i >= 0:
            columns.append((f"c[{i},{j}]", i, j))
    images = []
    for _, i, j in columns:
        x = ctx.v(1) ** i * ctx.v(2) ** j if j else ctx.v(1) ** i
        images.append([r_action(ctx, idx, x) for idx in ops])

    # (a) closed-form oracle: Cartan on a pure power of v1
    # the oracle carries p^(p^2), so equality with it gives 0 mod p^p
    report.expect(
        f"lemma7.9.top-action[r={r}]",
        "R[p^2](v1^r) = binom(r, p^2) p^(p^2) v1^(r-p^2), = 0 mod p^p",
        images[0][2],
        math.comb(r, p * p) * p ** (p * p) * ctx.v(1) ** (r - p * p),
        modulus=f"(p^{p})",
    )
    # the reported leading constant of the top action, no asserted target
    c_exact = math.comb(r, p * p)
    report.check(
        id=f"lemma7.9.constant[r={r}]",
        anchor="R[p^2] h = c p^(p^2-1) v1^(r-p^2) l with c computed exactly",
        status=True,
        computed=f"c = binom({r}, {p*p}) = {c_exact} "
        f"(valuation {padic_valuation(c_exact, p)})",
        note="the constant is reported, not asserted: no target value exists",
    )

    # (b) coboundary congruence table
    rows_ok, notes = [], []
    mod_p = ctx.ideal((1, ()))
    for (label, i, j), (row1, row2, row3) in zip(columns, images):
        if j == 0:
            ok1 = row1 == p * r * ctx.v(1) ** (r - 1)
            ok2 = reduce_mod(row2, ctx.ideal((p, ()))).is_zero()
            ok3 = reduce_mod(row3, ctx.ideal((p * p, ()))).is_zero()
            rows_ok.append(ok1 and ok2 and ok3)
            notes.append(f"{label}: [p r v1^(r-1); 0 mod p^p; 0 mod p^(p^2)]")
        else:
            main1 = -j * ctx.v(1) ** (i + p) * ctx.v(2) ** (j - 1)
            main2 = j * ctx.v(1) ** (i + 1) * ctx.v(2) ** (j - 1)
            ok1 = reduce_mod(row1 - main1, mod_p).is_zero()
            ok2 = reduce_mod(row2 - main2, mod_p).is_zero()
            ok3 = reduce_mod(row3, ctx.ideal((p, ()))).is_zero()
            rows_ok.append(ok1 and ok2 and ok3)
            # observed sharpest p-power modulus for the second row's
            # remainder, recorded for documentation
            rem2 = row2 - main2
            sharp = min(
                (padic_valuation(Fraction(c), p) for c in rem2.terms.values()),
                default="inf",
            )
            notes.append(f"{label}: second-row remainder valuation {sharp}")
    report.check(
        id=f"lemma7.9.coboundary-table[r={r}]",
        anchor="d0(v1^i v2^j l) = [-j v1^(i+p) v2^(j-1); j v1^(i+1) v2^(j-1); 0] l "
        "mod p in each row",
        status=all(rows_ok),
        computed="; ".join(notes),
        modulus="(p) rows; top action mod p^p",
    )

    # (c) exact linear system: an integral coboundary forces integral c_ij
    # and p-integral c
    target_index = {}
    for idx in ops:
        d = r * q - ctx.T.degree_of(idx)
        for mono in monomials_of_degree(d, ctx.V):
            target_index[(idx, mono.exps)] = len(target_index)
    matrix = [[Fraction(0)] * len(columns) for _ in range(len(target_index))]
    for cidx, rows in enumerate(images):
        for idx, image in zip(ops, rows):
            for exps, c in image.terms.items():
                matrix[target_index[(idx, exps)]][cidx] = Fraction(c)
    vals, C = _plocal_smith(matrix, p)
    ok = len(vals) == len(columns)  # full column rank
    worst = {}
    if ok:
        # lattice {x : Mx integral} has basis columns C * diag(p^-a)
        for k, a in enumerate(vals):
            for coord in range(len(columns)):
                v = C[coord][k]
                if v == 0:
                    continue
                val = padic_valuation(v, p) - a
                worst[coord] = min(worst.get(coord, 0), val)
        for coord, (label, i, j) in enumerate(columns):
            allowed = -1 if j == 0 else 0
            if worst.get(coord, 0) < allowed:
                ok = False
    report.check(
        id=f"lemma7.9.integrality-system[r={r}]",
        anchor="d0(c v1^r l + sum c_ij v1^i v2^j l) integral only if the c_ij "
        "are integral and p c is integral",
        status=ok,
        computed=", ".join(
            f"{label}: min valuation {worst.get(k, 0)}"
            for k, (label, i, j) in enumerate(columns)
        ),
    )
    return report


def verify_lemma_7_9(ctx: Context) -> Report:
    """ext1_invariant over every admissible r (p^2 < r < p^2 + p)."""
    report = Report(
        "order-p extension invariant over the admissible degree range",
        config={"prime": ctx.prime},
    )
    p = ctx.prime
    for r in range(p * p + 1, p * p + p):
        report.extend(ext1_invariant(ctx, r))
    return report


# ---------------------------------------------------------------------------
# Coefficient action values (the generator table)
# ---------------------------------------------------------------------------


def verify_lemma_7_3(ctx: Context) -> Report:
    """The action values on v1, v2, v3 with their exact congruences, plus
    the full recomputed action table emitted for documentation."""
    p = ctx.prime
    report = Report(
        "action of the dual operations on the coefficient generators",
        config={"prime": p, "truncation": ctx.truncation},
    )
    v1, v2, v3 = ctx.v(1), ctx.v(2), ctx.v(3)
    const_p = Poly.constant(ctx.V, p)
    report.expect("lemma7.3.R1v1", "R[1] v1 = p", r_action(ctx, (1,), v1), const_p)
    report.expect(
        "lemma7.3.R1v2",
        "R[1] v2 = -(p+1) v1^p",
        r_action(ctx, (1,), v2),
        -(p + 1) * v1**p,
    )
    report.expect("lemma7.3.R01v2", "R[0,1] v2 = p", r_action(ctx, (0, 1), v2), const_p)
    got = r_action(ctx, (p,), v2)
    ideal = ctx.ideal((p - 1, (1,)))  # (p^(p-1) v1)
    report.check(
        id="lemma7.3.Rpv2",
        anchor="R[p] v2 = v1 mod p^(p-1) v1",
        status=reduce_mod(got - v1, ideal).is_zero(),
        expected="v1",
        computed=format_poly(got),
        modulus=str(ideal),
    )
    for i in range(2, p):
        got = r_action(ctx, (i,), v2)
        weak = ctx.ideal((i, ()))  # (p^i)
        sharp = ctx.ideal((i, (p + 1 - i,)))  # (p^i v1^(p+1-i))
        report.check(
            id=f"lemma7.3.R{i}v2",
            anchor=f"R[{i}] v2 = 0 mod p^{i} for 1 < {i} < p",
            status=reduce_mod(got, weak).is_zero(),
            computed=format_poly(got),
            modulus=str(weak),
            note="sharper congruence mod p^i v1^(p+1-i) "
            + ("holds" if reduce_mod(got, sharp).is_zero() else "FAILS"),
        )
    got = r_action(ctx, (p + 1,), v2)
    report.check(
        id="lemma7.3.Rp1v2",
        anchor="R[p+1] v2 = 0 mod p^p",
        status=reduce_mod(got, ctx.ideal((p, ()))).is_zero(),
        computed=format_poly(got),
        modulus=f"(p^{p})",
    )
    chain1 = ctx.ideal_chain(1)
    got = r_action(ctx, (1,), v3)
    sharp = ctx.ideal((1, ()), (0, (p + 1,)))  # (p, v1^(p+1))
    report.check(
        id="lemma7.3.R1v3",
        anchor="R[1] v3 = -v2^p mod (p, v1)",
        status=reduce_mod(got + v2**p, chain1).is_zero(),
        expected="-v2^p",
        computed=format_poly(reduce_mod(got, chain1)),
        modulus=str(chain1),
        note="sharper congruence mod (p, v1^(p+1)) "
        + ("holds" if reduce_mod(got + v2**p, sharp).is_zero() else "FAILS"),
    )
    got = r_action(ctx, (p,), v3)
    report.check(
        id="lemma7.3.Rpv3",
        anchor="R[p] v3 = 0 mod (p, v1)",
        status=reduce_mod(got, chain1).is_zero(),
        computed=format_poly(reduce_mod(got, chain1)),
        modulus=str(chain1),
    )

    # the recomputed action tables, emitted rather than asserted: the
    # blanket line "R_I v_i = 0 for |I| > 1" holds only for v1
    tables = {
        name: r_action_table(ctx, x) for name, x in (("v1", v1), ("v2", v2), ("v3", v3))
    }
    lines = []
    for name, table in tables.items():
        entries = ", ".join(
            f"R{list(idx)} -> {format_poly(val)}"
            for idx, val in sorted(table.items())
            if idx != ()
        )
        lines.append(f"{name}: {entries}")
    only_r1 = set(tables["v1"]) <= {(), (1,)}
    report.check(
        id="lemma7.3.recomputed-table",
        anchor="full recomputed action table on v1, v2, v3",
        status=True,
        computed=" | ".join(lines)[:2000],
        note=(
            "the blanket vanishing line for |I| > 1 is recomputed to hold "
            "for v1 only (v1 table supported on R[1]: %s); nothing consumes "
            "the blanket line, the table above is what the pipelines use"
            % only_r1
        ),
    )
    return report
