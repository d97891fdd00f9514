"""Benchmark operations: what each op runs, and how its output is checked.

An op is one call into bpcalc that a user could make on its own: a CLI
invocation, or one call into a finite checker. Each op builds its own
``Config``/``Context``, so no memo table carries from one op to the next.
``run`` is timed; ``check`` is not, and returns the reason the output is
wrong, or None when it is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

VERIFY_FIELDS = ("id", "status", "expected", "computed", "modulus", "witness")


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _quiet(fn, *args):
    """Call fn with stdout and stderr captured; return (result, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue()


def compare_records(checks, reference) -> "str | None":
    """Every reference record must appear, in the output, with the same
    id/status/expected/computed/modulus/witness. Output fields and records
    the reference lacks are ignored."""
    by_id = {}
    for rec in checks:
        by_id.setdefault(rec.get("id"), []).append(rec)
    seen = {}
    for ref in reference:
        k = seen.get(ref["id"], 0)
        seen[ref["id"]] = k + 1
        got = by_id.get(ref["id"], [])
        if k >= len(got):
            return f"record {ref['id']} missing"
        for field in VERIFY_FIELDS:
            if field in ref and got[k].get(field) != ref[field]:
                return f"record {ref['id']}: {field} differs"
    return None


# -- verify ---------------------------------------------------------------------


def verify_all(bp, p: int, reference) -> Op:
    """``bpcalc verify all`` in-process: ``run_verify`` plus the JSON report."""

    def run():
        config = bp.cli.Config(prime=p, format="json", timing=False)
        return bp.cli.run_verify("all", config).to_json(timing=False)

    def check(text):
        return compare_records(json.loads(text)["checks"], reference)

    return Op("verify-all", f"verify all p={p}", run, check)


def verify_target(bp, target: str, p: int, reference, out_path: str) -> Op:
    """``bpcalc verify <target> --no-timing --format json --out <file>``."""
    argv = ["verify", target, "--prime", str(p), "--no-timing", "--format", "json",
            "--out", out_path]

    def run():
        _remove(out_path)
        return _quiet(bp.cli.main, argv)[0]

    def check(code):
        if code != 0:
            return f"exit code {code}"
        with open(out_path) as fh:
            return compare_records(json.load(fh)["checks"], reference)

    return Op("verify", f"verify {target} p={p}", run, check)


def eval_relation(bp, p: int, relation: str, poly: str) -> Op:
    """``bpcalc eval --prime p -- <relation> <poly>``: a commutator relation
    is the zero operation, so the printed value must be exactly ``0``. The
    ``--`` lets a literal start with a minus sign."""
    argv = ["eval", "--prime", str(p), "--", relation, poly]

    def run():
        return _quiet(bp.cli.main, argv)

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if out.strip() != "0":
            return f"printed {out.strip()[:60]!r}, not 0"
        return None

    return Op("eval", f"eval p={p} {relation!r} on {poly!r}", run, check)


# -- catfrac ------------------------------------------------------------------


def product_category(bp, left, right):
    """C x D with the product marked class S x T, as a catfrac category.

    Objects are ``x.y``; a pair of arrows is ``(f,g)`` unless both are
    identities, when it is the product object's identity."""
    C, S = left
    D, T = right

    def obj(x, y):
        return f"{x}.{y}"

    def name(f, g):
        if C.is_identity(f) and D.is_identity(g):
            return f"id_{obj(C.src(f), D.src(g))}"
        return f"({f},{g})"

    objects = [obj(x, y) for x in C.objects for y in D.objects]
    arrows = {}
    for f, (s1, t1) in C.morphisms.items():
        for g, (s2, t2) in D.morphisms.items():
            if not (C.is_identity(f) and D.is_identity(g)):
                arrows[name(f, g)] = (obj(s1, s2), obj(t1, t2))
    comps = {}
    for f1, f2 in C.composable_pairs():
        for g1, g2 in D.composable_pairs():
            outer, inner = name(f1, g1), name(f2, g2)
            if outer.startswith("id_") or inner.startswith("id_"):
                continue
            comps[(outer, inner)] = name(C.compose(f1, f2), D.compose(g1, g2))
    P = bp.catfrac.make_category(
        objects, arrows, comps, name=f"{C.name}x{D.name}"
    )
    marked = frozenset(name(s, t) for s in S for t in T)
    return P, marked


def product_localize(bp, left_entry, right_entry, pinned) -> Op:
    """Fraction axioms and localization on a product of two library
    entries. Every localized hom-set has the product of the factors'
    pinned sizes."""
    (lname, C, S), (rname, D, T) = left_entry, right_entry

    def run():
        P, marked = product_category(bp, (C, S), (D, T))
        axioms = bp.catfrac.check_fraction_axioms(P, marked)
        L, _, _ = bp.catfrac.localize(P, marked)
        sizes = {(x, y): len(L.hom(x, y)) for x in P.objects for y in P.objects}
        return axioms, sizes

    def check(result):
        axioms, sizes = result
        if len(axioms.records) != 4 or not axioms.passed:
            return "fraction axioms fail on the product"
        for x1 in C.objects:
            for x2 in D.objects:
                for y1 in C.objects:
                    for y2 in D.objects:
                        want = pinned[lname][x1][y1] * pinned[rname][x2][y2]
                        got = sizes.get((f"{x1}.{x2}", f"{y1}.{y2}"))
                        if got != want:
                            return f"hom({x1}.{x2}, {y1}.{y2}) has {got}, want {want}"
        return None

    return Op("cat-product", f"product {lname} x {rname}", run, check)


def category_file(C, classes=None, monad=None) -> str:
    """C in the category-file grammar, with marked classes and a monad."""
    lines = ["objects: " + " ".join(C.objects)]
    for f, (s, t) in C.morphisms.items():
        if not C.is_identity(f):
            lines.append(f"mor {f} : {s} -> {t}")
    for g, f in C.composable_pairs():
        if not (C.is_identity(f) or C.is_identity(g)):
            lines.append(f"compose {g} {f} = {C.compose(g, f)}")
    for cname, members in (classes or {}).items():
        lines.append(f"class {cname} = {{ {', '.join(sorted(members))} }}")
    if monad is not None:
        objs = ", ".join(f"{x}: {y}" for x, y in monad.obj_map.items())
        mors = ", ".join(f"{f}: {g}" for f, g in monad.mor_map.items())
        lines.append(f"functor E = {{ {objs} | {mors} }}")
        eta = ", ".join(f"{x}: {f}" for x, f in monad.eta.items())
        lines.append(f"nat eta E = {{ {eta} }}")
    return "\n".join(lines) + "\n"


def _remove(path):
    """Drop an earlier op's output, so a run that writes none is caught."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _cli_report(bp, argv, out_path):
    _remove(out_path)
    code = _quiet(bp.cli.main, argv + ["--format", "json", "--no-timing", "--out", out_path])[0]
    if code not in (0, 1):
        return code, None
    with open(out_path) as fh:
        return code, json.load(fh)


def cat_localize(bp, entry_name, C, path, out_path, pinned) -> Op:
    """``bpcalc cat localize``: localized hom-sets against the zig-zag
    oracle, one record per pair of objects, sizes as pinned."""

    def run():
        return _cli_report(bp, ["cat", "localize", path], out_path)

    def check(result):
        code, report = result
        if code != 0:
            return f"exit code {code}"
        recs = {r["id"]: r for r in report["checks"]}
        for x in C.objects:
            for y in C.objects:
                rec = recs.get(f"hom[{x},{y}]")
                if rec is None or rec["status"] != "pass":
                    return f"hom[{x},{y}] missing or disagrees with the oracle"
                if not rec["computed"].startswith(f"{pinned[entry_name][x][y]} classes"):
                    return f"hom[{x},{y}] size differs from the pinned size"
        return None

    return Op("cat-localize", f"cat localize {entry_name}", run, check)


def cat_check(bp, label, path, out_path, expect_valid: bool) -> Op:
    """``bpcalc cat check``: the fraction axioms of each class and the
    monad axioms. A valid file passes every record; a mutant monad must be
    rejected with exit code 1 and a failing monad record."""

    def run():
        return _cli_report(bp, ["cat", "check", path], out_path)

    def check(result):
        code, report = result
        if report is None or not report["checks"]:
            return f"exit code {code}, no records"
        monad_fails = [r for r in report["checks"]
                       if r["id"].startswith("monad[") and r["status"] == "fail"]
        if expect_valid:
            if code != 0 or report["status"] != "pass":
                return "rejected a valid category file"
        elif code != 1 or not monad_fails:
            return "accepted a mutant monad"
        return None

    return Op("cat-check", f"cat check {label}", run, check)


def universal_props(bp, label, C, monad) -> Op:
    """``verify_universal_props`` on a library monad: every record passes."""

    def run():
        return bp.catfrac.verify_universal_props(C, monad)

    def check(report):
        if not report.records or not report.passed:
            return "universal properties fail"
        return None

    return Op("cat-monad", f"universal properties {label}", run, check)


# -- abloc ---------------------------------------------------------------------


def _prime_of(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


def expected_localization(orders, inverted) -> list:
    """The cyclic prime-power factors whose prime is not inverted."""
    return sorted(n for n in orders if _prime_of(n) not in inverted)


def group_oracle(bp, orders, inverted, expected=None) -> Op:
    """``localize`` and the literal ``fraction_oracle`` on a finite group,
    both against the localization the benchmark computes itself."""
    want = expected_localization(orders, inverted) if expected is None else expected

    def run():
        S = bp.abloc.InvertedSet(frozenset(inverted))
        loc = bp.abloc.localize(bp.abloc.FGAbelianGroup(0, tuple(orders)), S)
        return loc.group(), bp.abloc.fraction_oracle(orders, S)

    def check(result):
        for who, group in zip(("localize", "fraction_oracle"), result):
            if group.rank != 0 or sorted(group.torsion) != want:
                return f"{who} gave {group}, want torsion {want}"
        return None

    return Op("abloc-oracle", f"oracle {orders} invert {inverted}", run, check)


def group_square(bp, rank, torsion, P1) -> Op:
    """The arithmetic square of Z^rank + torsion at P1: every record passes."""

    def run():
        return bp.abloc.arithmetic_square(bp.abloc.FGAbelianGroup(rank, tuple(torsion)), P1)

    def check(report):
        if not report.records or not report.passed:
            return "arithmetic square fails"
        return None

    return Op("abloc-square", f"square Z^{rank}+{torsion} at {P1}", run, check)


EXACTNESS_IDS = ["input-exact", "induced-maps", "localized-exact"]


def exactness(bp, groups, maps, inverted) -> Op:
    """``exactness_check`` on a short exact sequence: all three stages run
    and pass."""
    primes, complement = inverted

    def run():
        S = bp.abloc.InvertedSet(frozenset(primes), complement=complement)
        return bp.abloc.exactness_check(groups, maps, S)

    def check(report):
        ids = [r.id for r in report.records]
        if ids != EXACTNESS_IDS or not report.passed:
            return f"records {ids}, passed={report.passed}"
        return None

    return Op("abloc-exact", f"exactness {groups}", run, check)

