"""Regenerate the pinned references the benchmark checks outputs against.

    python3 perfbench/pin.py

Writes ``perfbench/ref/verify.json`` (the records of every verify target
at p = 5 and p = 7, the fields the checks compare only) and
``perfbench/ref/catfrac.json`` (the localized hom-set sizes of each
``catfrac.library()`` entry). Run it only on code whose reports are known
to be right: the benchmark treats these files as the truth.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bpcalc import catfrac, cli  # noqa: E402

from ops import VERIFY_FIELDS  # noqa: E402

PRIMES = (5, 7)


def verify_reference() -> dict:
    out = {}
    for p in PRIMES:
        for target in cli.VERIFY_TARGETS:
            report = cli.run_verify(target, cli.Config(prime=p, timing=False))
            checks = json.loads(report.to_json(timing=False))["checks"]
            out[f"{target} p={p}"] = [{k: c[k] for k in VERIFY_FIELDS} for c in checks]
    return out


def catfrac_reference() -> dict:
    out = {}
    for name, C, S in catfrac.library():
        L, _, _ = catfrac.localize(C, S)
        out[name] = {x: {y: len(L.hom(x, y)) for y in C.objects} for x in C.objects}
    return out


def main() -> int:
    ref = os.path.join(HERE, "ref")
    os.makedirs(ref, exist_ok=True)
    for fname, data in (("verify.json", verify_reference()),
                        ("catfrac.json", catfrac_reference())):
        with open(os.path.join(ref, fname), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
