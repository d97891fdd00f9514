"""bpcalc: exact-arithmetic workbench for the operation calculus on
Brown-Peterson homology, finite category-of-fractions checks, and
localization of finitely generated abelian groups."""

__version__ = "0.1.0"

from .arith import padic_valuation  # noqa: F401
from .grading import (  # noqa: F401
    Alphabet,
    Context,
    Monomial,
    Poly,
    TermIdeal,
    canonical_mod,
    divide_exact,
    monomials_of_degree,
    parse_poly,
    reduce_mod,
)
from .report import CheckRecord, Report  # noqa: F401
