"""Negative controls: the benchmark's checks must be able to fail.

    python3 perfbench/controls.py

Each control runs one op through the benchmark's own runner twice: as the
workload builds it, and with one expectation made wrong. The first must
give ops_failed_frac = 0, the second ops_failed_frac > 0:

* a verify record pinned with a wrong ``computed`` value;
* a group localization expected without one of its surviving factors;
* a mutant monad treated as valid;
* an ``eval`` of an operation that is not a relation (nonzero output);
* a product category pinned with a wrong hom-set size.

It also checks that the metrics the benchmark reports are the ones
``BENCHMARK.json`` lists. Exits 0 when every control behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import ops
import run
import workloads
from speed import SpeedClock
from tracing import Tracer


def failed_frac(op) -> float:
    result = run.run_pass([op])
    return len(run.failures([result])) / len(result["ops"])


def controls(bp, refs, scratch):
    """(name, op as built, op with a wrong expectation) triples."""
    ref = refs["verify"]["lemma7.5 p=5"]
    wrong_ref = copy.deepcopy(ref)
    wrong_ref[0]["computed"] += " (tampered)"
    out = os.path.join(scratch, "verify.json")
    yield ("wrong pinned record",
           ops.verify_target(bp, "lemma7.5", 5, ref, out),
           ops.verify_target(bp, "lemma7.5", 5, wrong_ref, out))

    orders, inverted = [8, 9, 25], (3,)
    yield ("wrong expected group",
           ops.group_oracle(bp, orders, inverted),
           ops.group_oracle(bp, orders, inverted, expected=[8]))

    name, C, monad = bp.catfrac.mutant_monads()[0]
    path = os.path.join(scratch, "mutant.cat")
    with open(path, "w") as fh:
        fh.write(ops.category_file(C, monad=monad))
    report = os.path.join(scratch, "cat-report.json")
    yield ("mutant monad treated as valid",
           ops.cat_check(bp, name, path, report, expect_valid=False),
           ops.cat_check(bp, name, path, report, expect_valid=True))

    yield ("eval of a non-relation",
           ops.eval_relation(bp, 7, "R[1]R[p] - R[p]R[1] - R[0,1]", "v1*v2"),
           ops.eval_relation(bp, 7, "R[1]R[p] - R[p]R[1]", "v1*v2"))

    library = bp.catfrac.library()
    pinned = refs["catfrac"]
    wrong_pinned = copy.deepcopy(pinned)
    wrong_pinned["interval/all"]["x0"]["x1"] += 1
    yield ("wrong pinned hom-set size",
           ops.product_localize(bp, library[3], library[4], pinned),
           ops.product_localize(bp, library[3], library[4], wrong_pinned))


def metric_names_match(bp) -> list:
    """Differences between the metrics the benchmark reports and the ones
    BENCHMARK.json lists, both sections."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    clock = SpeedClock()
    clock.starts, clock.ends, clock.kernel_s = [0.0], [2.0], [1.0]
    fake = [{"start": 0.0, "end": 1.0, "wall_s": 1.0,
             "ops": [{"label": "x", "t0": 0.0, "t1": 1.0, "s": 1.0, "error": None}]}]
    e2e, _ = run.end_to_end([(0.0, 1.0)], fake, 1024, clock)
    layer = set(Tracer(bp).metrics()) | {"trace.overhead_s"}
    problems = []
    for section, names in (("end_to_end", set(e2e)), ("per_layer", layer)):
        listed = {m["name"] for m in bench[section]}
        if listed != names:
            problems.append(f"{section}: only reported {sorted(names - listed)}, "
                            f"only listed {sorted(listed - names)}")
    return problems


def main() -> int:
    sys.path.insert(0, run.SRC)
    bp = run.load_bpcalc()
    refs = workloads.load_references(run.HERE)
    scratch = os.path.join(run.OUT, f"controls-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    ok = True
    try:
        for name, good, bad in controls(bp, refs, scratch):
            good_frac, bad_frac = failed_frac(good), failed_frac(bad)
            behaves = good_frac == 0 and bad_frac > 0
            ok &= behaves
            print(f"{'ok  ' if behaves else 'FAIL'} {name}: "
                  f"ops_failed_frac {good_frac:g} as built, {bad_frac:g} tampered")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in metric_names_match(bp):
        ok = False
        print(f"FAIL metric names, {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
