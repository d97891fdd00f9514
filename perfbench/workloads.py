"""The benchmark's workloads: the op list of one pass, made from the seed.

* ``verify-all``: ``verify all`` at p = 7, the CLI's heaviest command.
  Nearly all of it is the structural sweep, i.e. the ``grading`` basis
  change under ``hopf.eta_r`` and the Cartan table. It is one op, so its
  op percentiles are its time.
* ``short-commands``: ``verify all`` at p = 5, the seven single verify
  targets at both primes and 210 ``eval`` ops, each applying a commutator
  relation to a seeded polynomial; together they use every v-monomial of
  degree <= 2(p^3 - 1) once per prime. ``verify all`` at p = 5 sits here
  rather than in ``verify-all``: one 2 s op a pass is too few samples for
  a steady percentile of its own.
  Cold contexts that share little, so a memo or eager table that pays off
  only in long sweeps shows here as a cost.
* ``finite-checkers``: ``catfrac`` and ``abloc`` only. It calls no
  ``grading``, ``hopf`` or ``opcalc`` code, so an optimisation of the
  BP side should leave it unchanged.

A pass makes each seeded input at most once. The finite sets (verify
targets, library entries, product pairs) recur only when a run makes more
than one pass.
"""

from __future__ import annotations

import json
import os

import gen
import ops

WORKLOADS = ("verify-all", "short-commands", "finite-checkers")
PRIMES = (5, 7)
TARGETS = ("lemma7.1", "lemma7.3", "lemma7.5", "lemma7.7", "thm7.2", "lemma7.9", "thm7.10")
GROUPS_PER_BAND = 3
SQUARES = 8
SEQUENCES_PER_BAND = 8


def load_references(bench_dir: str) -> dict:
    refs = {}
    for name in ("verify", "catfrac"):
        with open(os.path.join(bench_dir, "ref", f"{name}.json")) as fh:
            refs[name] = json.load(fh)
    return refs


class Inputs:
    """Per-run input state: the seeded stream, the inputs drawn so far, the
    pinned references and a directory for the files ops read and write."""

    def __init__(self, rng, refs: dict, scratch: str):
        self.rng = rng
        self.refs = refs
        self.scratch = scratch
        self.seen = set()

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)


def build_pass(workload: str, bp, inputs: Inputs) -> list:
    builder = {
        "verify-all": _verify_all,
        "short-commands": _short_commands,
        "finite-checkers": _finite_checkers,
    }[workload]
    return builder(bp, inputs)


def _verify_all(bp, inputs):
    return [ops.verify_all(bp, 7, inputs.refs["verify"]["all p=7"])]


def _short_commands(bp, inputs):
    ref = inputs.refs["verify"]
    targets = [(t, p) for p in PRIMES for t in TARGETS] + [("all", 5)]
    op_list = [
        ops.verify_target(bp, t, p, ref[f"{t} p={p}"], inputs.path(f"verify-{t}-p{p}.json"))
        for t, p in targets
    ]
    for p, relation, poly in gen.eval_ops(inputs.rng, PRIMES, inputs.seen):
        op_list.append(ops.eval_relation(bp, p, relation, poly))
    inputs.rng.shuffle(op_list)
    return op_list


def _finite_checkers(bp, inputs):
    rng, seen = inputs.rng, inputs.seen
    catfrac, pinned = bp.catfrac, inputs.refs["catfrac"]
    library = catfrac.library()
    op_list = [
        ops.product_localize(bp, library[i], library[j], pinned)
        for i, j in gen.product_pairs(rng, len(library))
    ]
    report = inputs.path("cat-report.json")
    for k, (name, C, S) in enumerate(library):
        path = inputs.path(f"library-{k}.cat")
        with open(path, "w") as fh:
            fh.write(ops.category_file(C, classes={"S": S}))
        op_list.append(ops.cat_check(bp, name, path, report, expect_valid=True))
        op_list.append(ops.cat_localize(bp, name, C, path, report, pinned))
    monads = [(m, True) for m in catfrac.library_monads()]
    monads += [(m, False) for m in catfrac.mutant_monads()]
    for k, ((name, C, monad), valid) in enumerate(monads):
        path = inputs.path(f"monad-{k}.cat")
        with open(path, "w") as fh:
            fh.write(ops.category_file(C, monad=monad))
        op_list.append(ops.cat_check(bp, name, path, report, expect_valid=valid))
        if valid:
            op_list.append(ops.universal_props(bp, name, C, monad))
    for orders, inverted in gen.abloc_groups(rng, GROUPS_PER_BAND, seen):
        op_list.append(ops.group_oracle(bp, orders, inverted))
    for rank, torsion, P1 in gen.square_groups(rng, SQUARES, seen):
        op_list.append(ops.group_square(bp, rank, torsion, P1))
    for groups, maps, inverted in gen.exact_sequences(rng, SEQUENCES_PER_BAND, seen):
        op_list.append(ops.exactness(bp, groups, maps, inverted))
    rng.shuffle(op_list)
    return op_list
