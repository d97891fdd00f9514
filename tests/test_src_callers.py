"""Dead-code guard: every function and class in ``src/bpcalc`` is named
somewhere in ``src/`` outside its own body, or is listed in ``ALLOWED``
with the reason it stays.

A name counts as named when it appears as a bare name or an attribute
anywhere in the package, so two definitions that share a name vouch for
each other; dunder methods are called by the interpreter and are skipped.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bpcalc"

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "abloc.arithmetic_square": "ROADMAP item 11: finite checker, no CLI path yet",
    "abloc.exactness_check": "ROADMAP item 11: finite checker, no CLI path yet",
    "catfrac.verify_universal_props": "ROADMAP item 11: finite checker, no CLI path yet",
    "catfrac.library_monads": "ROADMAP item 11: finite checker, no CLI path yet",
    "catfrac.mutant_monads": "ROADMAP item 11: finite checker, no CLI path yet",
    "catfrac.library": "ROADMAP item 11; the demos and the benchmark read it",
    "report.Report.from_json": "the public report reader",
    "cli._CommandParser.parse_known_args": "argparse hook: parse_args calls it",
    "hopf.psi_monomial": "the decoded diagonal: test oracles and the benchmark trace read it",
}


def _names(node) -> collections.Counter:
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(module: str, tree):
    """(qualified name, node) for every function and class, nested ones too."""
    stack = [(module, node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}.{node.name}"
            yield qualname, node
            stack.extend((qualname, child) for child in node.body)
        else:
            stack.extend((prefix, child) for child in ast.iter_child_nodes(node))


def _uncalled():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    named = sum((_names(tree) for tree in trees.values()), collections.Counter())
    return sorted(
        qualname
        for module, tree in trees.items()
        for qualname, node in _definitions(module, tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == _names(node)[node.name]
    )


def test_every_definition_in_src_has_a_caller_in_src():
    assert _uncalled() == sorted(ALLOWED)
