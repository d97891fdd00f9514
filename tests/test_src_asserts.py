"""No ``assert`` statement in ``src/bpcalc``: ``python -O`` strips them, so
every check the package makes must be an explicit raise.  CI also runs the
checks that must hold under ``python -O``; this scan says what that step
guards in tier-1."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bpcalc"


def test_src_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and found == []
