"""Byte-for-byte pin of the demos' output.

Each ``demos/<name>.py`` prints ``TPoly``, ``TensorPoly`` and
``OperationCombo`` values among others; the pairings and the commutator
expansion of ``operation_calculus`` come from ``pair_word`` and
``OperationExpr.in_basis``.  ``tests/golden/demos/<name>.txt`` holds each
demo's stdout.  Rewrite a golden
file only for a deliberate change of what a demo prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_bytes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    got = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True
    ).stdout
    assert got == (GOLDEN / f"{demo.stem}.txt").read_bytes()
