#!/usr/bin/env python3
"""Walk through the dual-operation calculus at p = 7.

Shows the diagonal on the co-operation generators, the Kronecker pairing,
the commutator relations among R[1], R[p], R[0,1], and the action on the
coefficient ring, all in exact arithmetic.
"""

from bpcalc import Context
from bpcalc.grading import format_poly
from bpcalc.hopf import (
    OperationExpr,
    eta_r,
    pair_word,
    psi_t,
    r_action,
    verify_lemma_7_1,
)

ctx = Context(prime=7)
p = ctx.prime

print("== the diagonal ==")
print("psi t1 =", psi_t(ctx, 1))
print("psi t2 =", psi_t(ctx, 2))
print(f"psi t3 has {len(psi_t(ctx, 3).terms)} terms; its coefficient at "
      f"t1^{p} (x) t1^{p*p-p} is", format_poly(psi_t(ctx, 3).coeff((p,), (p * p - p,))))

print()
print("== the right unit on the coefficient ring ==")
for i in (1, 2):
    print(f"eta_R(v{i}) =", eta_r(ctx, ctx.v(i)))

print()
print("== dual operations and the pairing ==")
r1, rp, r01 = (1,), (p,), (0, 1)
print("<R[0,1], t2> =", format_poly(pair_word(ctx, (r01,), (0, 1))))
print("<R[1]R[p], t1*t2> =", format_poly(pair_word(ctx, (r1, rp), (1, 1))))
print("<R[p]R[1], t1*t2> =", format_poly(pair_word(ctx, (rp, r1), (1, 1))))

bound = ctx.qdeg(2 * p + 4)
E = OperationExpr.word
commutator = (E(ctx, r1, rp) - E(ctx, rp, r1)).in_basis(bound)
print("R[1]R[p] - R[p]R[1] expands to:", commutator)

print()
print("== the commutator relations, verified on the whole window ==")
report = verify_lemma_7_1(ctx)
for record in report.records:
    if record.id.startswith("relation["):
        print(("  ok  " if record.status else "  FAIL") + "  " + record.anchor)

print()
print("== action on the coefficient generators ==")
for label, idx, x in (
    ("R[1] v1", (1,), ctx.v(1)),
    ("R[1] v2", (1,), ctx.v(2)),
    ("R[0,1] v2", (0, 1), ctx.v(2)),
    ("R[p] v2", (p,), ctx.v(2)),
):
    print(f"{label} =", format_poly(r_action(ctx, idx, x)))
