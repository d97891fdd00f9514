"""Byte-for-byte pin of the deterministic ``verify all`` reports.

``tests/golden/verify_all_p5.json`` and ``verify_all_p7.json`` hold the
output of ``bpcalc verify all --prime P --no-timing --format json``.  A
speedup must leave these bytes unchanged; rewrite the files only for a
deliberate change of report content.
"""

import os
from pathlib import Path

import pytest

from bpcalc.cli import ENV_PREFIX, EXIT_PASS, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("prime", [5, 7])
def test_verify_all_report_bytes(prime, tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)
    out = tmp_path / "report.json"
    argv = ["verify", "all", "--prime", str(prime), "--no-timing",
            "--format", "json", "--out", str(out)]
    assert main(argv) == EXIT_PASS
    expected = (GOLDEN / f"verify_all_p{prime}.json").read_bytes()
    assert out.read_bytes() == expected
