"""Sparse graded polynomials over the v-, m- and t-alphabets.

Generators v_i, m_i, t_i all sit in degree 2(p^i - 1).  Coefficients are
exact rationals; polynomials are stored as ``{exponent tuple: coefficient}``
with no zero entries and trailing zeros trimmed from exponent tuples.
All values are immutable by convention and safe to share between threads.

Every sparse algebra of the package -- ``Poly`` here, and in ``hopf`` the
co-operations ``TPoly``, the tensor square ``TensorPoly``, the dual-basis
expansions ``OperationCombo``, and the packed-key tables ``_Flat`` of
the basis change here and of the diagonal, the right unit and the Cartan
side there -- runs on one kernel: ``Sparse`` holds a terms dict ``{key:
nonzero coefficient}`` and implements sum, difference, negation and
scaling; ``SparseRing`` adds the product and powers.
``add_term`` is the accumulate step that keeps a terms dict free of zeros
(the product loop inlines it).  A subclass supplies only what differs:

* ``_like(terms)``: a value of its own kind over the same alphabet or
  context;
* ``_one()``: the unit (rings only);
* ``_add_keys``: the product-key rule, ``add_exps`` unless overridden
  (``TensorPoly`` adds ``(left, right)`` pairs side by side; ``_Flat``
  keeps a product loop of its own that adds its int keys inline);
* ``_pow_key``: the key of a one-term value's n-th power, which ``**``
  then writes in closed form (``Poly``: the exponents times n; ``_Flat``:
  the packed key times n); every other value is raised by binary powering;
* ``_scalars``: the types that multiply by scaling;
* ``_operand`` and ``_product``: here ``Poly`` coerces int/Fraction
  operands, checks alphabets and checks products against the truncation.

The three tuple-keyed values of ``hopf`` with ``Poly`` coefficients share
one further base there, ``hopf._Coeffs``: it owns their constructor,
``_like``, ``_one``, ``coeff`` and equality, and each of ``TPoly``,
``TensorPoly`` and ``OperationCombo`` supplies only its key normal form,
print order and printed key.  ``single_degree`` is the one "common degree
of these terms" rule that ``Poly.degree`` and the degrees of ``hopf``
share.

The module owns the one printer of the package: ``_format_mono`` prints a
monomial from its alphabet tag and exponents, ``_term`` one coefficient on
one body and ``_join_signed`` a signed sum of terms.  ``format_poly``,
``Monomial``, ``TermIdeal``, ``hopf._Coeffs`` and ``hopf.OperationExpr``
all print through them.

The module also owns the change of basis between the integral v-generators
and the rational m-generators (Hazewinkel relations, supported for indices
1..3), term ideals with their normal-form reduction, and exhaustive
enumeration of monomials by degree.  The basis change has one
implementation, on flat tables under packed-int keys whose generator
tables run the Hazewinkel recursions over Z, ``_v_in_m_flat`` and
``_m_in_v_scaled``: ``Context.to_m_basis`` and ``hopf``'s Cartan side read
``_v_to_m_flat``, ``Context.to_v_basis`` and ``hopf`` the scaled images
``_m_to_v_scaled``.

Every memo lives in one store per ``Context``, ``ctx.memo``: named tables
``{arguments: value}``, never shared between contexts.  ``memoized`` fills
the table named after the function it wraps, keyed by the arguments after
the context; ``memo_power`` fills ``<base>_pow``, keyed by (i, e).  Here,
as flat ``{packed int key: int}`` tables: the generator tables
``_v_in_m_flat(_pow)`` (v_i in the m-basis) and ``_m_in_v_scaled(_pow)``
(p^i m_i in the v-basis, integral), each generator's entry filled after
those of the lower generators its recursion reads; and the scaled images
``_m_to_v_scaled`` (p^s * m^a per m-monomial, over
``_m_in_v_scaled``), filled by hand under the packed m-key int itself,
each entry (s, ((v-key, int), ...)), the pairs ``_m_to_v_into`` loops
over.  In ``hopf``, as flat tables, its one internal form
(it keeps no rows or other layouts): the diagonal ``_psi_t_m`` (over
Z[m]) and ``_psi_t_v`` (v-basis) with ``_psi_t_v_pow`` and ``_psi_flat``
(per t-monomial), the right unit's ``_eta_r_m_generator(_pow)``,
``_eta_v_generator(_pow)`` and ``_eta_flat`` (per v-monomial); decoded at
its edge or otherwise: ``_psi_by_left`` (psi of a t-monomial grouped
by left factor, the one decoded diagonal; ``psi_monomial`` builds its
TensorPoly from it per call and stores nothing), ``_factor_actions``,
``pair_word`` (the one composite pairing, which ``OperationExpr.in_basis``
reads too) with ``_head_splits`` (the divisors of a head letter it visits)
and ``_eta_r_cached`` (eta_r per inner value of ``pair_word``, keyed by
the hashable ``Poly``).  ``OperationExpr.act`` stores nothing of its own;
its one-index Cartan step reads ``_factor_actions``.  Besides
``_m_to_v_scaled`` only ``rtable``, the Cartan side's full tables (counts),
is filled by hand, in closed form per monomial by
``hopf._mono_action_table``.  Callers must not mutate a memo
entry.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, padic_valuation
from .errors import (
    AlphabetError,
    DegreeError,
    ExponentOverflowError,
    NotDivisibleError,
    ParseError,
    TruncationError,
)

HAZEWINKEL_MAX_INDEX = 3  # the v <-> m relation table stops at v3


def _num(x):
    """Normalize a coefficient: plain int when the denominator is 1."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _trim(exps) -> tuple:
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def add_exps(e1, e2) -> tuple:
    """Componentwise sum of two exponent tuples."""
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    return tuple(a + b for a, b in zip(e1, e2)) + e1[len(e2):]


def scale_exps(exps, n) -> tuple:
    """Every exponent times n: the monomial's n-th power."""
    return tuple(e * n for e in exps)


def exps_divides(e1, e2) -> bool:
    """True iff the monomial with exponents e1 divides the one with e2.

    Both tuples are trailing-zero trimmed, so e1 longer than e2 means e1
    has a positive exponent e2 lacks.
    """
    if len(e1) > len(e2):
        return False
    return all(a <= b for a, b in zip(e1, e2))


@dataclass(frozen=True)
class Alphabet:
    """One of the graded alphabets v, m, t with a generator count and prime."""

    tag: str
    size: int
    prime: int

    def __post_init__(self):
        if self.tag not in ("v", "m", "t"):
            raise ValueError(f"unknown alphabet tag {self.tag!r}")
        if self.size < 1:
            raise ValueError("alphabet needs at least one generator")

    def gen_degree(self, i: int) -> int:
        """Degree 2(p^i - 1) of the i-th generator (1-based)."""
        if i < 1 or i > self.size:
            raise TruncationError(
                f"{self.tag}{i} outside truncation (N={self.size})"
            )
        return 2 * (self.prime**i - 1)

    def degree_of(self, exps) -> int:
        return sum(e * self.gen_degree(i + 1) for i, e in enumerate(exps) if e)

    def name(self, i: int) -> str:
        return f"{self.tag}{i}"


@dataclass(frozen=True)
class Monomial:
    alphabet: Alphabet
    exps: tuple

    def __post_init__(self):
        object.__setattr__(self, "exps", _trim(self.exps))
        if len(self.exps) > self.alphabet.size:
            raise TruncationError(
                f"monomial uses index {len(self.exps)} beyond N={self.alphabet.size}"
            )

    @property
    def degree(self) -> int:
        return self.alphabet.degree_of(self.exps)

    def __str__(self):
        return _format_mono(self.alphabet.tag, self.exps)


def single_degree(degrees, mixed: str):
    """The one degree among ``degrees``: None when there are none,
    DegreeError(f"{mixed} [sorted degrees]") when they differ."""
    degs = set(degrees)
    if not degs:
        return None
    if len(degs) > 1:
        raise DegreeError(f"{mixed} {sorted(degs)}")
    return degs.pop()


def add_term(terms: dict, key, c) -> None:
    """Add the coefficient c into ``terms[key]``, deleting the entry when the
    sum is zero, so a terms dict never holds a zero coefficient."""
    prev = terms.get(key)
    if prev is not None:
        c = prev + c
    if c:
        terms[key] = _num(c)
    else:
        terms.pop(key, None)


class Sparse:
    """Finite mapping key -> nonzero coefficient with the operations of a
    module; the module docstring lists the hooks a subclass supplies."""

    __slots__ = ("terms",)

    def _operand(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        return other

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in self._operand(other).terms.items():
            add_term(terms, k, c)
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s):
        """Multiply every coefficient by s."""
        terms = {}
        for k, c in self.terms.items():
            c = c * s
            if c:
                terms[k] = _num(c)
        return self._like(terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms


class SparseRing(Sparse):
    """A Sparse with a commutative product: coefficients multiply and keys
    combine by ``_add_keys``.  Coefficients must form a domain, so the
    product of two nonzero terms is never zero."""

    __slots__ = ()

    _scalars = (int, Fraction)
    _add_keys = staticmethod(add_exps)
    _pow_key = None  # (key, n) -> the key of a one-term value's n-th power

    def _product(self, terms):
        return self._like(terms)

    def __mul__(self, other):
        # The exact-type test spares the common case an isinstance check
        # against Fraction, which goes through ABCMeta.
        if other.__class__ is not self.__class__ and isinstance(other, self._scalars):
            return self.scale(other)
        other = self._operand(other)
        add_keys = self._add_keys
        terms = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = add_keys(k1, k2)
                c = c1 * c2
                prev = get(k)
                if prev is None:
                    terms[k] = c
                else:
                    c = prev + c
                    if c:
                        terms[k] = c
                    else:
                        del terms[k]
        return self._product(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """The n-th power: a one-term value in closed form when the class
        has a key rule ``_pow_key`` (c^n at the key times n), any other
        value by binary powering."""
        if n < 0:
            raise ValueError("negative power")
        if n and self._pow_key is not None and len(self.terms) == 1:
            ((key, c),) = self.terms.items()
            return self._like({self._pow_key(key, n): _num(c**n)})
        result = self._one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


class Poly(SparseRing):
    """Sparse polynomial: finite mapping exponent-tuple -> rational, one alphabet."""

    __slots__ = ("alphabet",)
    _pow_key = staticmethod(scale_exps)

    def __init__(self, alphabet: Alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        for exps, c in (terms or {}).items():
            exps = _trim(exps)
            if len(exps) > alphabet.size:
                raise TruncationError(
                    f"term uses index {len(exps)} beyond N={alphabet.size}"
                )
            add_term(clean, exps, c if isinstance(c, (int, Fraction)) else Fraction(c))
        self.terms = clean

    @classmethod
    def _raw(cls, alphabet, terms):
        out = cls.__new__(cls)
        out.alphabet, out.terms = alphabet, terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet):
        return cls._raw(alphabet, {})

    @classmethod
    def constant(cls, alphabet, c):
        c = _num(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return cls._raw(alphabet, {(): c} if c else {})

    @classmethod
    def gen(cls, alphabet, i, power=1, coeff=1):
        if i < 1 or i > alphabet.size:
            raise TruncationError(f"{alphabet.tag}{i} outside truncation")
        if power == 0 or coeff == 0:
            return cls.constant(alphabet, coeff)
        exps = (0,) * (i - 1) + (power,)
        return cls._raw(alphabet, {exps: _num(coeff)})

    # -- kernel hooks -------------------------------------------------

    def _like(self, terms):
        return Poly._raw(self.alphabet, terms)

    def _one(self):
        return Poly.constant(self.alphabet, 1)

    def _operand(self, other):
        if other.__class__ is not Poly and isinstance(other, (int, Fraction)):
            return Poly.constant(self.alphabet, other)
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetError(
                f"alphabet mismatch: {self.alphabet.tag} vs {other.alphabet.tag}"
            )
        return other

    def _product(self, terms):
        if any(len(e) > self.alphabet.size for e in terms):
            raise TruncationError("product exceeds alphabet truncation")
        return Poly._raw(self.alphabet, {e: _num(c) for e, c in terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.alphabet, other)
        return (
            isinstance(other, Poly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    # -- queries --------------------------------------------------------

    def coeff(self, exps) -> Fraction:
        return Fraction(self.terms.get(_trim(exps), 0))

    def degree(self):
        """Common degree of all terms; None for 0; raises if inhomogeneous."""
        return single_degree(
            (self.alphabet.degree_of(e) for e in self.terms),
            "inhomogeneous polynomial: degrees",
        )

    def is_integral(self, p: int) -> bool:
        """True iff every coefficient has padic_valuation >= 0 at p."""
        return all(padic_valuation(c, p) >= 0 for c in self.terms.values())

    def substitute(self, image, target_alphabet: Alphabet) -> "Poly":
        """Apply the linear map sending each monomial to a polynomial over
        target_alphabet.

        ``image(exps)`` returns the terms dict of the image of the monomial
        with exponent tuple ``exps``; it is only read, never stored, so it may
        be a memo entry.
        """
        terms = {}
        get = terms.get
        for exps, c in self.terms.items():
            for e, d in image(exps).items():
                s = get(e, 0) + c * d
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Poly._raw(target_alphabet, {e: _num(s) for e, s in terms.items()})

    # -- printing ---------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly[{self.alphabet.tag}]({format_poly(self)})"


def _format_mono(tag: str, exps) -> str:
    """The monomial with exponents exps in the generators tag1, tag2, ...,
    e.g. ``v1*v3^2``; 1 when exps is empty."""
    return "*".join(
        f"{tag}{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps, start=1) if e
    ) or "1"


def _term(cs: str, body: str) -> str:
    """One printed term: the coefficient cs alone on the body 1, the body
    alone (or negated) for a coefficient 1 (or -1), else cs*body with a
    coefficient that has spaces in parentheses."""
    if body == "1":
        return cs
    if cs == "1":
        return body
    if cs == "-1":
        return f"-{body}"
    return f"({cs})*{body}" if " " in cs else f"{cs}*{body}"


def _join_signed(parts):
    """Join printed terms into a sum: ``a - b + c`` from a, -b, c."""
    chunks = []
    for part in parts:
        if not chunks:
            chunks.append(part)
        elif part.startswith("-"):
            chunks.append("- " + part[1:])
        else:
            chunks.append("+ " + part)
    return " ".join(chunks)


def format_poly(poly: Poly) -> str:
    """Print in the literal grammar, e.g. ``-2*v2^4 + 1/7*v1*v3``."""
    alphabet = poly.alphabet
    items = sorted(poly.terms.items(), key=lambda kv: (alphabet.degree_of(kv[0]), kv[0]))
    parts = (_term(str(c), _format_mono(alphabet.tag, e)) for e, c in items)
    return _join_signed(parts) or "0"


_FACTOR_RE = re.compile(r"^([vmt])(\d+)(?:\^(\d+))?$")
_COEF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def split_signed_terms(text: str):
    """Split a sum on top-level +/- (outside parentheses) into
    ``[(sign, chunk), ...]``; an empty chunk is a dangling sign."""
    terms = []
    sign, buf, depth = 1, [], 0
    s = text.strip()
    i = 0
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            chunk = "".join(buf).strip()
            if not chunk:
                raise ParseError(f"dangling sign in {text!r}")
            terms.append((sign, chunk))
            sign = -1 if ch == "-" else 1
            buf = []
        else:
            buf.append(ch)
        i += 1
    chunk = "".join(buf).strip()
    if not chunk:
        raise ParseError(f"dangling sign in {text!r}")
    terms.append((sign, chunk))
    return terms


def parse_poly(text: str, alphabet: Alphabet) -> Poly:
    """Parse ``term (('+'|'-') term)*`` with ``term := [coef '*'] gens``.

    ``coef := int | int '/' int``; a bare coefficient is a constant term;
    a bare generator product has coefficient 1.
    """
    if not text.strip():
        raise ParseError("empty polynomial literal")
    terms = {}
    for sgn, chunk in split_signed_terms(text):
        coeff = Fraction(sgn)
        exps = [0] * alphabet.size
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in {chunk!r}")
            m = _FACTOR_RE.match(factor)
            if m:
                tag, idx, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
                if tag != alphabet.tag:
                    raise ParseError(
                        f"generator {factor!r} not in alphabet {alphabet.tag!r}"
                    )
                if idx < 1 or idx > alphabet.size:
                    raise TruncationError(
                        f"{factor!r} outside truncation N={alphabet.size}"
                    )
                exps[idx - 1] += power
                continue
            m = _COEF_RE.match(factor)
            if not m or m.group(2) and int(m.group(2)) == 0:
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            coeff *= Fraction(int(m.group(1)), int(m.group(2) or 1))
        add_term(terms, _trim(exps), coeff)
    return Poly(alphabet, terms)


# ---------------------------------------------------------------------------
# Term ideals and normal-form reduction
# ---------------------------------------------------------------------------


class TermIdeal:
    """Ideal generated by terms p^a * (v-monomial); reduction deletes terms.

    A term c*mono of a polynomial is deleted exactly when some generator
    p^a*g satisfies val_p(c) >= a and g | mono.  For the ideals used here
    (every generator a p-power times a monomial) this termwise rule is a
    confluent normal form, idempotent by construction.
    """

    def __init__(self, gens, prime: int):
        # gens: iterable of (a, exps) with a >= 0
        self.prime = prime
        self.gens = tuple((int(a), _trim(e)) for a, e in gens)
        for a, _ in self.gens:
            if a < 0:
                raise ValueError("p-power exponent must be >= 0")

    @classmethod
    def zero(cls, prime):
        return cls((), prime)

    @classmethod
    def chain(cls, prime, k):
        """The ideal (p, v_1, ..., v_k)."""
        gens = [(1, ())]
        for i in range(1, k + 1):
            gens.append((0, (0,) * (i - 1) + (1,)))
        return cls(gens, prime)

    @classmethod
    def unit(cls, prime):
        return cls([(0, ())], prime)

    def is_chain(self):
        """True for (0), (p), (p, v_1), ..., i.e. quotient is a domain."""
        if not self.gens:
            return True
        ks = []
        for a, e in self.gens:
            if (a, e) == (1, ()):
                continue
            if a != 0 or sum(e) != 1 or e[-1] != 1:
                return False
            ks.append(len(e))
        return (1, ()) in self.gens and sorted(ks) == list(range(1, len(ks) + 1))

    def kills_term(self, coeff, exps) -> bool:
        for a, g in self.gens:
            if exps_divides(g, exps) and padic_valuation(coeff, self.prime) >= a:
                return True
        return False

    def __eq__(self, other):
        return (
            isinstance(other, TermIdeal)
            and self.prime == other.prime
            and sorted(self.gens) == sorted(other.gens)
        )

    def __hash__(self):
        return hash((self.prime, tuple(sorted(self.gens))))

    def __str__(self):
        parts = (
            _term("1" if a == 0 else "p" if a == 1 else f"p^{a}", _format_mono("v", e))
            for a, e in self.gens
        )
        return "(" + (", ".join(parts) or "0") + ")"


def reduce_mod(x: Poly, ideal: TermIdeal) -> Poly:
    """Normal form of x modulo a term ideal (termwise deletion).

    Requires x integral; the result is idempotent under further reduction
    and, for chain ideals (p, v_1, ..., v_k), a ring-quotient map.
    """
    if not x.is_integral(ideal.prime):
        raise ValueError("reduce_mod needs an integral polynomial")
    kept = {e: c for e, c in x.terms.items() if not ideal.kills_term(c, e)}
    return Poly._raw(x.alphabet, kept)


def canonical_mod(x: Poly, ideal: TermIdeal) -> Poly:
    """Canonical representative mod a term ideal: delete divisible terms,
    then reduce each surviving coefficient to its least-absolute residue
    modulo the smallest applicable p-power.

    For a surviving term c*mono the applicable power is min(a) over
    generators p^a*g with g | mono (val_p(c) < a for all of them, else the
    term would have been deleted), so the residue is well-defined and two
    polynomials are congruent mod the ideal iff their canonical forms are
    structurally equal.
    """
    reduced = reduce_mod(x, ideal)
    p = ideal.prime
    out = {}
    for e, c in reduced.terms.items():
        a_min = None
        for a, g in ideal.gens:
            if exps_divides(g, e):
                a_min = a if a_min is None else min(a_min, a)
        if a_min is None:
            out[e] = c
            continue
        w = p**a_min
        c = Fraction(c)
        r = c.numerator * pow(c.denominator, -1, w) % w
        if r > w // 2:
            r -= w
        if r:
            out[e] = r
    return Poly._raw(x.alphabet, out)


def monomials_of_degree(degree: int, alphabet: Alphabet):
    """Exhaustive, duplicate-free list of monomials of the given degree,
    sorted by exps.  The exponents of the generators past the first are
    enumerated and the first one's solved for: every generator degree is a
    multiple of deg(g1) = q, so a degree off those multiples has none."""
    q, out = alphabet.gen_degree(1), []
    exps = [0] * alphabet.size

    def rec(i, remaining):  # fixes the exponent of generator i + 1
        if i == 0:
            exps[0] = remaining // q
            out.append(Monomial(alphabet, tuple(exps)))
            return
        d = alphabet.gen_degree(i + 1)
        for e in range(remaining // d + 1):
            exps[i] = e
            rec(i - 1, remaining - e * d)

    if degree >= 0 and not degree % q:
        rec(alphabet.size - 1, degree)
    return sorted(out, key=lambda m: m.exps)


def monomials_up_to(bound: int, alphabet: Alphabet):
    """All monomials of even degree <= bound, sorted by (degree, exps), from
    one pass of the exponent recursion (every generator degree is even)."""
    out = []

    def rec(i, remaining, exps):
        if i > alphabet.size:
            out.append(Monomial(alphabet, tuple(exps)))
            return
        d = alphabet.gen_degree(i)
        for e in range(remaining // d + 1):
            exps.append(e)
            rec(i + 1, remaining - e * d, exps)
            exps.pop()

    if bound >= 0:
        rec(1, bound, [])
    return sorted(out, key=lambda m: (m.degree, m.exps))


def divide_exact(x: Poly, coeff, mono_exps, ideal: TermIdeal) -> Poly:
    """Exact quotient q with q * (coeff*mono) = x in the quotient by ideal.

    The ideal must be a chain (p, v_1, ..., v_k) or (0) so the quotient ring
    is a domain and q is unique.  Raises NotDivisibleError when no exact
    quotient exists.
    """
    if not ideal.is_chain():
        raise ValueError(
            f"divide_exact needs a chain ideal or (0), got {ideal}"
        )
    mono_exps = _trim(mono_exps)
    p = ideal.prime
    out = {}
    for e, c in x.terms.items():
        if not exps_divides(mono_exps, e):
            raise NotDivisibleError(
                f"monomial {Monomial(x.alphabet, e)} not divisible by "
                f"{Monomial(x.alphabet, mono_exps)}"
            )
        q = Fraction(c, 1) / Fraction(coeff, 1)
        if padic_valuation(q, p) < 0:
            raise NotDivisibleError(
                f"coefficient {c} not divisible by {coeff} p-locally"
            )
        new_e = _trim(
            tuple(
                (e[i] if i < len(e) else 0)
                - (mono_exps[i] if i < len(mono_exps) else 0)
                for i in range(max(len(e), len(mono_exps)))
            )
        )
        out[new_e] = _num(q)
    quotient = reduce_mod(Poly._raw(x.alphabet, out), ideal)
    # verification: re-multiplying reproduces the dividend in the quotient
    divisor = Poly._raw(x.alphabet, {mono_exps: _num(Fraction(coeff))})
    if reduce_mod(quotient * divisor - x, ideal):
        raise NotDivisibleError("quotient check failed under the ideal")
    return quotient


# ---------------------------------------------------------------------------
# Computation context: prime, truncation, Hazewinkel basis change
# ---------------------------------------------------------------------------


def memoized(fn):
    """Memoize ``fn(ctx, *args)`` in ``ctx.memo[fn.__name__]``, keyed by args.

    The first argument is the ``Context`` (``self`` for a Context method);
    the others must be hashable.  A call that raises stores nothing.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(ctx, *args):
        table = ctx.memo[name]
        got = table.get(args)
        if got is None:
            got = table[args] = fn(ctx, *args)
        return got

    return wrapper


def memo_power(ctx, base, i, e):
    """``base(ctx, i) ** e``, memoized per (i, e) in ``ctx.memo[<base>_pow]``.

    A power extends the cached power one below it when there is one (as
    for the structural sweep's v2 and v3 powers; it chains v1 instead);
    otherwise it is built by ``**`` (in closed form for a one-term
    generator) and only the result is stored.
    The first power is the generator itself.
    """
    table = ctx.memo[base.__name__ + "_pow"]
    got = table.get((i, e))
    if got is None:
        got = base(ctx, i)
        prev = table.get((i, e - 1))
        if prev is not None:
            got = prev * got
        elif e > 1:
            got = got**e
        table[i, e] = got
    return got


class Context:
    """Fixed prime and truncation carried through every computation.

    Owns the three alphabets and ``memo``, the package's one memo store of
    named tables that fill lazily (the module docstring lists them all).
    ``to_m_basis`` and ``to_v_basis`` read the flat tables of the module's
    basis change (Hazewinkel relations, indices 1..3).  q = 2(p-1).
    """

    def __init__(self, prime: int = 7, truncation: int = 4):
        Context.check_prime(prime)
        if truncation < 3:
            raise ValueError("truncation must be >= 3")
        self.prime = prime
        self.truncation = truncation
        self.V = Alphabet("v", truncation, prime)
        self.M = Alphabet("m", truncation, prime)
        self.T = Alphabet("t", truncation, prime)
        self.q = 2 * (prime - 1)
        self.memo = defaultdict(dict)

    @staticmethod
    def check_prime(prime: int) -> None:
        """ValueError unless prime is an odd prime."""
        if not is_prime(prime) or prime == 2:
            raise ValueError(f"prime must be an odd prime, got {prime}")

    def qdeg(self, units: int) -> int:
        """Degree of `units * q`."""
        return units * self.q

    def to_m_basis(self, x: Poly) -> Poly:
        """x in the rational m-basis (indices <= 3): an m-polynomial as it
        is, a v-polynomial as its flat image (``_v_to_m_flat``) decoded."""
        if x.alphabet == self.M:
            return x
        flat = _v_to_m_flat(self, x, "to_m_basis")
        return Poly._raw(self.M, {_unpack(k): c for k, c in flat.terms.items()})

    def to_v_basis(self, x: Poly) -> Poly:
        """x in the v-basis (indices <= 3): a v-polynomial as it is, each
        m^a of an m-polynomial as its scaled flat image p^s * m^a
        (``_m_to_v_scaled``) over p^s.  The input is checked, and the key
        bound (``_key_bound``), before any key is packed."""
        if x.alphabet == self.V:
            return x
        _hazewinkel_input(x, self.M, "to_v_basis")
        _key_bound(self, x, "to_v_basis")

        def image(exps):
            s, pairs = _m_to_v_scaled(self, _pack(exps))
            return {_unpack(k): Fraction(c, self.prime**s) for k, c in pairs}

        return x.substitute(image, self.V)

    # -- convenience ----------------------------------------------------

    def v(self, i, power=1, coeff=1) -> Poly:
        return Poly.gen(self.V, i, power, coeff)

    def m(self, i, power=1, coeff=1) -> Poly:
        return Poly.gen(self.M, i, power, coeff)

    def ideal(self, *gens) -> TermIdeal:
        """Build a term ideal from (a, exps) pairs."""
        return TermIdeal(gens, self.prime)

    def ideal_chain(self, k: int) -> TermIdeal:
        return TermIdeal.chain(self.prime, k)

    def __repr__(self):
        return f"Context(p={self.prime}, N={self.truncation})"


# ---------------------------------------------------------------------------
# Flat tables under packed-int keys: the basis change
# ---------------------------------------------------------------------------

# A flat table is {key: coefficient}: the key packs exponents into
# _FIELD_BITS-bit fields, so a product key is a plain sum and the one
# sparse kernel multiplies them (``_Flat``).  The low HAZEWINKEL_MAX_INDEX
# fields hold a v- or m-monomial (every flat image involves only indices
# 1..3 there); from ``_T_SHIFT`` up ``hopf`` packs its t-exponents.  The
# generator tables write each generator power's key with ``_gen``.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_T_SHIFT = _FIELD_BITS * HAZEWINKEL_MAX_INDEX
_V_MASK = (1 << _T_SHIFT) - 1


def _pack(exps, shift=0) -> int:
    key = 0
    for j, e in enumerate(exps):
        key |= e << (shift + _FIELD_BITS * j)
    return key


def _unpack(key) -> tuple:
    exps = []
    while key:
        exps.append(key & _FIELD_MASK)
        key >>= _FIELD_BITS
    return tuple(exps)


def _gen(i, e=1, shift=0) -> int:
    """The key of generator i to the power e from bit shift (i = 0: 1, key 0)."""
    return e << shift + _FIELD_BITS * (i - 1) if i else 0


def _key_bound(ctx: Context, x: Poly, name: str) -> int:
    """max deg/q over the terms of x, a bound on every exponent of their
    packed images; ExponentOverflowError when it passes the field width."""
    bound = max((x.alphabet.degree_of(e) // ctx.q for e in x.terms), default=0)
    if bound > _FIELD_MASK:
        raise ExponentOverflowError(
            f"{name}: an exponent of the image (up to deg/q = {bound}) would "
            f"exceed the {_FIELD_BITS}-bit key field"
        )
    return bound


class _Flat(SparseRing):
    """A flat table: packed int key -> int (or Fraction) coefficient.  A
    product key is the sum of the two keys, added in the loop itself rather
    than through ``_add_keys``, and a one-term power's key is the key times
    n (``_pow_key``)."""

    __slots__ = ()
    _pow_key = staticmethod(operator.mul)

    def __init__(self, terms):
        self.terms = terms

    def __mul__(self, other):
        if other.__class__ is not _Flat:
            return SparseRing.__mul__(self, other)
        terms = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                prev = get(k)
                if prev is None:
                    terms[k] = c1 * c2
                else:
                    c = prev + c1 * c2
                    if c:
                        terms[k] = c
                    else:
                        del terms[k]
        return _Flat(terms)

    __rmul__ = __mul__

    def _like(self, terms):
        return _Flat(terms)

    def _one(self):
        return _Flat({0: 1})


def _flat_image(ctx: Context, x: Poly, generator, name: str) -> _Flat:
    """The flat image of x under the ring map with generator images
    ``generator(ctx, i)``: sum c * prod_i generator(ctx, i)^(a_i) over the
    terms c * x^a, from memoized powers (``memo_power``), each image starting
    from a copy of its first power; a mixed monomial's image is not stored.
    Every exponent of the image of x^a is at most deg(x^a)/q, so
    ExponentOverflowError comes first when that bound passes the field
    width (``_key_bound``)."""
    _key_bound(ctx, x, name)
    acc = _Flat({})
    for exps, c in x.terms.items():
        image = None
        for i, e in enumerate(exps, start=1):
            if e:
                power = memo_power(ctx, generator, i, e)
                image = _Flat(dict(power.terms)) if image is None else image * power
        image = _Flat({0: c}) if image is None else image if c == 1 else image.scale(c)
        acc = acc + image if acc.terms else image
    return acc


def _hazewinkel_steps(tag: str, i: int):
    """The indices i-1, ..., 1 of the relation for generator i (i <= 3)."""
    if i < 1 or i > HAZEWINKEL_MAX_INDEX:
        raise TruncationError(
            f"hazewinkel relation table covers {tag}1..{tag}{HAZEWINKEL_MAX_INDEX}, got {tag}{i}"
        )
    return range(i - 1, 0, -1)


@memoized
def _v_in_m_flat(ctx: Context, i: int) -> _Flat:
    """v_i in the m-basis as a flat table {packed m-key: int}, by the
    Hazewinkel recursion over Z, i <= 3: v_i = p m_i - sum_{0<j<i}
    v_(i-j)^(p^j) m_j, so v1 = p m1, v2 = p m2 - v1^p m1, v3 = p m3 -
    v1^(p^2) m2 - v2^p m1."""
    p = ctx.prime
    out = _Flat({_gen(i): p})
    for j in _hazewinkel_steps("v", i):
        out = out - _v_in_m_flat(ctx, i - j) ** (p**j) * _Flat({_gen(j): 1})
    return out


@memoized
def _m_in_v_scaled(ctx: Context, i: int) -> _Flat:
    """p^i m_i in the v-basis as a flat table {packed v-key: int}, i <= 3,
    by the Hazewinkel recursion p m_i = v_i + sum_{0<j<i} v_(i-j)^(p^j)
    m_j times p^(i-1), over Z: p^i m_i = p^(i-1) v_i + sum_{0<j<i}
    p^(i-1-j) v_(i-j)^(p^j) (p^j m_j), so p m1 = v1, p^2 m2 = p v2 +
    v1^(p+1), ..."""
    p = ctx.prime
    out = _Flat({_gen(i): p ** (i - 1)})
    for j in _hazewinkel_steps("m", i):
        power = _Flat({_gen(i - j, p**j): p ** (i - 1 - j)})
        out = out + power * _m_in_v_scaled(ctx, j)
    return out


def _m_to_v_scaled(ctx: Context, key: int) -> tuple:
    """(s, ((packed v-key, int), ...)): p^s * m^a in the v-basis for the
    packed m-monomial m^a, s = a1 + 2 a2 + 3 a3: p^s * m^a = prod_i (p^i
    m_i)^(a_i), the flat image over ``_m_in_v_scaled`` as its pairs.  Filled
    by hand into ``ctx.memo["_m_to_v_scaled"]`` under the int key itself, so
    ``_m_to_v_into`` reads it with one int lookup per term."""
    table = ctx.memo["_m_to_v_scaled"]
    got = table.get(key)
    if got is None:
        exps = _unpack(key)
        s = sum(i * e for i, e in enumerate(exps, start=1))
        image = _flat_image(ctx, Poly._raw(ctx.M, {exps: 1}), _m_in_v_scaled, "m_to_v")
        got = table[key] = (s, tuple(image.terms.items()))
    return got


def _m_to_v_into(ctx: Context, terms: dict, K: int, into: dict) -> dict:
    """Add p^K times a flat table with m-monomials in its low fields, in the
    v-basis and undivided, into ``into`` (zeros kept): each term times its
    image p^s m^a, pairs read from ``_m_to_v_scaled``'s table by the int
    m-key, times p^(K - s).  That factor is computed once per s that occurs
    and read back by list index (s <= K: the degree of m^a bounds s)."""
    p, get, images = ctx.prime, into.get, ctx.memo["_m_to_v_scaled"]
    scale = [0] * (K + 1)
    for k, c in terms.items():
        m = k & _V_MASK
        s, image = images.get(m) or _m_to_v_scaled(ctx, m)
        f = scale[s]
        if not f:
            f = scale[s] = p ** (K - s)
        c *= f
        t = k - m
        for vk, d in image:
            vk += t
            into[vk] = get(vk, 0) + c * d
    return into


def _m_to_v_flat(ctx: Context, terms: dict, K: int, where) -> _Flat:
    """``_m_to_v_into``, then one exact division by p^K.  A remainder, or a
    p left in a Fraction's denominator, is a non-integral value:
    ValueError(where(t-part of the key))."""
    p, out, pK = ctx.prime, {}, ctx.prime**K
    for k, c in _m_to_v_into(ctx, terms, K, {}).items():
        c, r = divmod(c, pK) if c.__class__ is int else (_num(c / pK), 0)
        if r or c.__class__ is Fraction and padic_valuation(c, p) < 0:
            raise ValueError(where(k >> _T_SHIFT))
        if c:
            out[k] = c
    return _Flat(out)


def _hazewinkel_input(x: Poly, source: Alphabet, name: str) -> None:
    """The input contract of the basis change ``name`` out of ``source``:
    another alphabet raises AlphabetError, and a term in generator 4 or
    above (past the Hazewinkel relations and the packed fields)
    TruncationError naming it, both before any arithmetic."""
    if x.alphabet != source:
        article = "an" if source.tag == "m" else "a"
        raise AlphabetError(f"{name} expects {article} {source.tag}-polynomial")
    for exps in x.terms:
        for i in range(HAZEWINKEL_MAX_INDEX, len(exps)):
            if exps[i]:
                raise TruncationError(f"no substitution image for {source.name(i + 1)}")


def _v_to_m_flat(ctx: Context, x: Poly, name: str) -> _Flat:
    """The flat image of the v-polynomial x in the m-basis over
    ``_v_in_m_flat``, after the check of its input (``_hazewinkel_input``)
    and of its key bound (``_flat_image``), each error naming the caller
    ``name``: ``to_m_basis``, or ``r_action`` for the Cartan side."""
    _hazewinkel_input(x, ctx.V, name)
    return _flat_image(ctx, x, _v_in_m_flat, name)
