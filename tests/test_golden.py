"""Byte-for-byte pin of deterministic verify reports.

``tests/golden/verify_all_p5.json`` and ``verify_all_p7.json`` hold the
output of ``bpcalc verify all --prime P --no-timing --format json``.
``verify_lemma7_5_pP.json`` and ``verify_lemma7_7_pP.json`` hold the
stand-alone ``verify lemma7.5`` and ``verify lemma7.7`` reports, which
``verify all`` folds into the ``thm7.2`` chain and does not print on their
own.  ``verify_all_p11.json`` and ``verify_all_p13.json`` are the same
report at p = 11 and 13.  Tier-1 checks p = 11 too, in about 2-4 s and
40 MB since the coherence sweep drops the Cartan tables it has passed;
CI steps also compare both with ``cmp`` against the installed script,
the p = 13 one (about 12 s) under an address-space cap.  A speedup or
refactor must leave these bytes unchanged; rewrite the files only for a
deliberate change of report content.
"""

from pathlib import Path

import pytest

from bpcalc.cli import EXIT_PASS, main

GOLDEN = Path(__file__).parent / "golden"


def _report_bytes(target, prime, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", target, "--prime", str(prime), "--no-timing",
            "--format", "json", "--out", str(out)]
    assert main(argv) == EXIT_PASS
    return out.read_bytes()


@pytest.mark.parametrize("prime", [5, 7, 11])
def test_verify_all_report_bytes(prime, tmp_path):
    expected = (GOLDEN / f"verify_all_p{prime}.json").read_bytes()
    assert _report_bytes("all", prime, tmp_path) == expected


@pytest.mark.parametrize("target", ["lemma7.5", "lemma7.7"])
@pytest.mark.parametrize("prime", [5, 7])
def test_verify_stage_report_bytes(target, prime, tmp_path):
    name = target.replace(".", "_")
    expected = (GOLDEN / f"verify_{name}_p{prime}.json").read_bytes()
    assert _report_bytes(target, prime, tmp_path) == expected
