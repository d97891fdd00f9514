"""Localization of finitely generated abelian groups at sets of primes.

A group is carried in canonical form (free rank plus a sorted list of
prime-power torsion orders); a multiplicative set is carried by the set of
primes it inverts, since two multiplicative sets invert the same primes
iff they give the same localization.  Inverting a set of primes preserves
the rank and deletes exactly the torsion at those primes.

``fraction_oracle`` recomputes a finite localization literally: pairs
(m, s) over a stabilizing segment of the multiplicative set, quotiented by
the fraction equivalence, with the group structure read back off the class
table.  It is the independent check for ``localize``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_prime, padic_valuation
from .errors import OracleError, ParseError, PreconditionError
from .report import Report


def _factor(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FGAbelianGroup:
    """rank + prime-power torsion orders, the canonical form."""

    rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        normal = []
        for n in self.torsion:
            if n <= 0:
                raise ValueError(f"torsion order {n} must be positive")
            if n == 1:
                continue
            for p, e in _factor(n).items():
                normal.append(p**e)
        object.__setattr__(
            self, "torsion", tuple(sorted(normal, key=lambda n: (min(_factor(n)), n)))
        )

    def torsion_primes(self):
        return sorted({min(_factor(n)) for n in self.torsion})

    def __str__(self):
        return _group_str("Z", self.rank, self.torsion)


def _group_str(ring: str, rank: int, torsion) -> str:
    """``ring^rank + Z/n1 + Z/n2 ...``, with ``ring`` alone for rank 1 and
    0 for the zero group."""
    parts = [ring if rank == 1 else f"{ring}^{rank}"] if rank else []
    parts.extend(f"Z/{n}" for n in torsion)
    return " + ".join(parts) or "0"


@dataclass(frozen=True)
class InvertedSet:
    """The multiplicative closure of a set of primes (and 1), carried by
    the primes themselves; ``complement`` flips to all primes except those
    listed, ``rationalize`` inverts every nonzero integer."""

    primes: frozenset = frozenset()
    complement: bool = False
    rationalize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "primes", frozenset(self.primes))
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    def inverts(self, p: int) -> bool:
        if self.rationalize:
            return True
        return (p in self.primes) != self.complement

    def ring_str(self) -> str:
        if self.rationalize:
            return "Q"
        if self.complement:
            if len(self.primes) == 1:
                return f"Z_({min(self.primes)})"
            return "Z_(" + ",".join(str(p) for p in sorted(self.primes)) + ")"
        if not self.primes:
            return "Z"
        return "Z[" + ",".join(f"1/{p}" for p in sorted(self.primes)) + "]"

    def __str__(self):
        return self.ring_str()


@dataclass(frozen=True)
class LocalizedGroup:
    """A localized group: rank over the localized ring plus surviving torsion."""

    rank: int
    torsion: tuple
    inverted: InvertedSet

    def group(self) -> FGAbelianGroup:
        return FGAbelianGroup(self.rank, self.torsion)

    def __str__(self):
        return _group_str(self.inverted.ring_str(), self.rank, self.torsion)


def parse_group(text: str) -> FGAbelianGroup:
    """Parse ``Z^r + Z/n1 + Z/n2 ...``; non-prime-power orders normalize."""
    text = text.strip()
    if text in ("0", ""):
        return FGAbelianGroup()
    rank = 0
    torsion = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        m = re.fullmatch(r"Z\^(\d+)", chunk)
        if m:
            rank += int(m.group(1))
            continue
        if chunk == "Z":
            rank += 1
            continue
        m = re.fullmatch(r"Z/(\d+)", chunk)
        if m:
            if int(m.group(1)) == 0:
                raise ParseError(f"bad group literal chunk {chunk!r}: order 0")
            torsion.append(int(m.group(1)))
            continue
        raise ParseError(f"bad group literal chunk {chunk!r}")
    return FGAbelianGroup(rank, tuple(torsion))


def localize(M: FGAbelianGroup, S: InvertedSet) -> LocalizedGroup:
    """Rank preserved; Z/p^k factors deleted exactly when S inverts p."""
    kept = tuple(n for n in M.torsion if not S.inverts(min(_factor(n))))
    return LocalizedGroup(M.rank, kept, S)


# ---------------------------------------------------------------------------
# Finite groups as element tables
# ---------------------------------------------------------------------------


class FiniteTable:
    """A finite abelian group presented by cyclic orders; elements are
    exponent tuples with componentwise addition.  ``index`` codes an
    element as its position in ``elements()`` (mixed radix, last
    coordinate fastest), so tables over the group can be int lists."""

    def __init__(self, orders):
        self.orders = tuple(int(n) for n in orders if n > 1)
        self.order = math.prod(self.orders) if self.orders else 1

    def elements(self):
        if not self.orders:
            return [()]
        return list(itertools.product(*(range(n) for n in self.orders)))

    def index(self, a):
        i = 0
        for x, n in zip(a, self.orders):
            i = i * n + x
        return i

    def scale_indices(self, k):
        """Multiplication by k as an index table: entry i is the index of
        k times the i-th element."""
        out = [0]
        for n in self.orders:
            step = [(k * x) % n for x in range(n)]
            out = [i * n + c for i in out for c in step]
        return out

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def scale(self, k, a):
        return tuple((k * x) % n for x, n in zip(a, self.orders))

    def zero(self):
        return (0,) * len(self.orders)

    def element_order(self, a):
        return math.lcm(
            *(n // math.gcd(x, n) for x, n in zip(a, self.orders))
        ) if self.orders else 1


def _u_levels(table: FiniteTable, u: int):
    """Multiplication by u on element indices, down to where it stabilizes.

    Returns (stable, e, levels): ``stable`` is the set of indices of
    u^e M, where e is least with u^e M = u^(e+1) M, and for a <= 2e,
    levels[a][i] is the index of the unique x in u^e M with u^a x = u^e m,
    m the i-th element (multiplication by u is bijective on u^e M).
    """
    times_u = table.scale_indices(u)
    stable = set(range(table.order))
    e = 0
    while True:
        nxt = {times_u[i] for i in stable}
        if nxt == stable:
            break
        stable = nxt
        e += 1
    inverse_of_u = {times_u[x]: x for x in stable}
    level = list(range(table.order))
    for _ in range(e):
        level = [times_u[i] for i in level]
    levels = [level]
    for _ in range(2 * e):
        level = [inverse_of_u[i] for i in level]
        levels.append(level)
    return stable, e, levels


def structure_from_orders(order_counts: dict) -> FGAbelianGroup:
    """Recover the canonical form of a finite abelian group from the count
    of elements of each order (the counts determine the group)."""
    total = sum(order_counts.values())
    primes = _factor(total)
    torsion = []
    for p in primes:
        # f(k) = #elements of order dividing p^k = p^(sum_i min(k, e_i))
        exps = []
        k = 0
        prev_log = 0
        while True:
            k += 1
            f = sum(
                cnt for order, cnt in order_counts.items() if p**k % order == 0
            )
            log = _int_log(f, p)
            step = log - prev_log  # = #{i : e_i >= k}
            if step == 0:
                break
            exps.append(step)
            prev_log = log
        # exps[k-1] = number of cyclic factors with exponent >= k
        counts = []
        for k in range(1, len(exps) + 1):
            here = exps[k - 1] - (exps[k] if k < len(exps) else 0)
            counts.extend([p**k] * here)
        torsion.extend(counts)
    return FGAbelianGroup(0, tuple(torsion))


def _int_log(f, p):
    log = 0
    while f % p == 0 and f > 1:
        f //= p
        log += 1
    if f != 1:
        raise ValueError("element count not a prime power")
    return log


def table_structure(table: FiniteTable, subset=None) -> FGAbelianGroup:
    counts = {}
    for a in subset if subset is not None else table.elements():
        o = table.element_order(a)
        counts[o] = counts.get(o, 0) + 1
    return structure_from_orders(counts)


def fraction_oracle(
    orders, S: InvertedSet, max_order: int = 20000
) -> FGAbelianGroup:
    """The literal module-of-fractions construction on an element table.

    Builds the pairs (m, s) for s in a finite segment of S closed under
    enough products to stabilize, quotients by the fraction equivalence
    ((m, s) ~ (m', s') iff m s' s'' = m' s s'' for some s''), and reads the
    group structure off the classes.

    The sum of fractions is checked to be well defined on a sample of at
    most 400 pairs of classes: every pair when there are at most 20
    classes, otherwise a stride walk through the k*k pairs of the k
    classes (``_pair_sample``) that puts every class on the left when
    k <= 400 and spreads the right summand over all classes.  Each sampled
    pair is summed over the first and the last representative of each
    class and must give one class.  With e = 0 every class is a single
    pair and there is nothing to sample.
    """
    table = FiniteTable(orders)
    if table.order > max_order:
        raise PreconditionError(
            f"group order {table.order} exceeds the fraction oracle's bound {max_order}"
        )
    relevant = [p for p in sorted(_factor(table.order)) if S.inverts(p)]
    u = math.prod(relevant) if relevant else 1
    elements = table.elements()
    # the canonical representative of (m, u^a) is levels[a][m]; sums of
    # two fractions reach a = 2e
    stable, e, levels = _u_levels(table, u)

    def rep(m, a):
        return levels[a][table.index(m)]

    classes = {x: [] for x in levels[0]}  # every class meets a = 0
    for a in range(e + 1):
        for x, m in zip(levels[a], elements):
            classes[x].append((m, a))
    # addition (m,s) + (m',s') = (m s' + m' s, s s') is well defined on the
    # classes: the sum's class must not depend on the representatives.  With
    # e = 0 every class is a single pair, so there is nothing to compare.
    scaled = {}  # (m, b) -> u^b m; a class recurs across the sampled pairs

    def times(m, b):
        x = scaled.get((m, b))
        if x is None:
            x = scaled[(m, b)] = table.scale(u**b, m)
        return x

    sample = list(classes.values())
    for pairs1, pairs2 in _pair_sample(sample, 400) if e else ():
        sums = {
            rep(table.add(times(m1, a2), times(m2, a1)), a1 + a2)
            for m1, a1 in (pairs1[0], pairs1[-1])
            for m2, a2 in (pairs2[0], pairs2[-1])
        }
        if len(sums) > 1:
            raise OracleError(
                f"fraction oracle: the sum of the classes of {pairs1[0]} and "
                f"{pairs2[0]} depends on the representatives"
            )
    return table_structure(table, subset=[elements[i] for i in stable])


def _pair_sample(items, count):
    """Up to ``count`` distinct pairs of the k items: all k*k of them when
    that is few enough, otherwise the pairs (q mod k, q div k) for
    q = n * step mod k*k, n < count.  The step is coprime to k, so the
    left item runs through all k items in any k consecutive pairs, and
    near 0.618 k*k, so the right item spreads over all of them."""
    k = len(items)
    if k * k <= count:
        return [(x, y) for x in items for y in items]
    step = k * k * 618 // 1000
    while math.gcd(step, k) != 1:
        step += 1
    return [
        (items[q % k], items[q // k])
        for q in (n * step % (k * k) for n in range(count))
    ]


# ---------------------------------------------------------------------------
# The arithmetic square
# ---------------------------------------------------------------------------


def arithmetic_square(M: FGAbelianGroup, P1) -> Report:
    """Localize at P1 and at its complement, rationalize, and verify the
    square is both a pullback and a pushout by exact element-level
    computation on the torsion part and exact valuation bookkeeping on a
    finite window for the rank part."""
    P1 = frozenset(P1)
    S1 = InvertedSet(P1)  # inverts P1
    S2 = InvertedSet(P1, complement=True)  # inverts everything else
    A = localize(M, S2)  # torsion at P1 dies under S2? no: S2 inverts non-P1
    B = localize(M, S1)
    Q = localize(M, InvertedSet(rationalize=True))
    report = Report(
        "arithmetic square is a pullback and a pushout",
        config={"group": str(M), "P1": ",".join(map(str, sorted(P1)))},
    )
    report.check(
        id="corners",
        anchor="corners M (x) Z[P1^-1], M (x) Z[P2^-1], M (x) Q",
        status=True,
        computed=f"{B} | {A} | {Q}",
    )
    # torsion part: T -> T/(P1-part) x T/(P2-part) must be bijective
    table = FiniteTable(M.torsion)
    part1 = [n for n in M.torsion if min(_factor(n)) in P1]
    part2 = [n for n in M.torsion if min(_factor(n)) not in P1]
    u1 = math.prod({min(_factor(n)) for n in part1}) if part1 else 1
    u2 = math.prod({min(_factor(n)) for n in part2}) if part2 else 1
    e = max(
        (max(_factor(n).values()) for n in M.torsion), default=0
    ) + 1
    images = {}
    collision = None
    for a in table.elements():
        key = (table.scale(u1**e, a), table.scale(u2**e, a))
        if key in images:
            collision = f"{a} and {images[key]} agree in both corners"
            break
        images[key] = a
    pullback_ok = collision is None and len(images) == table.order
    report.check(
        id="torsion-pullback",
        anchor="the torsion part maps bijectively to the product of its "
        "two localizations",
        status=pullback_ok,
        computed=f"{len(images)} pairs from {table.order} elements",
        witness=collision or "",
    )
    # pushout on torsion: the map onto the product is surjective and the
    # rational corner is 0
    t1 = FiniteTable(part2)  # localizing at P1 keeps non-P1 torsion
    t2 = FiniteTable(part1)
    pushout_ok = table.order == t1.order * t2.order and Q.torsion == ()
    report.check(
        id="torsion-pushout",
        anchor="the two corner quotients jointly exhaust the torsion "
        "(rational corner zero)",
        status=pushout_ok,
        computed=f"|T| = {table.order}, |corners| = {t1.order} * {t2.order}",
    )
    # rank part on a finite window of fractions
    sample2 = sorted(
        p for p in set(list(P1) + M.torsion_primes() + [2, 3, 5]) if p not in P1
    )[:2]
    window_ok, witness = _rank_window_check(P1, sample2)
    report.check(
        id="rank-window",
        anchor="Z[P1^-1] and Z[P2^-1] meet in Z and jointly span Q "
        "(checked exhaustively on a window of fractions)",
        status=window_ok,
        computed=f"rank {M.rank} free part; window primes {sorted(P1)} | {sample2}",
        witness=witness,
    )
    report.check(
        id="pullback-recovers",
        anchor="pullback of the square reproduces the group",
        status=pullback_ok and M.rank == A.rank == B.rank == Q.rank,
        computed=str(M),
    )
    return report


def _rank_window_check(P1, sample2):
    u1 = math.prod(P1) if P1 else 1
    u2 = math.prod(sample2) if sample2 else 1
    for den1 in (1, u1, u1 * u1):
        for den2 in (1, u2, u2 * u2):
            den = den1 * den2
            for num in range(-12, 13):
                x = Fraction(num, den) if den else Fraction(num)
                in_r1 = all(
                    padic_valuation(x, p) >= 0 for p in sample2
                )  # Z[P1^-1] constrains non-P1 primes
                in_r2 = all(padic_valuation(x, p) >= 0 for p in P1)
                if in_r1 and in_r2:
                    if x.denominator != 1 and any(
                        padic_valuation(x, p) < 0 for p in list(P1) + sample2
                    ):
                        return False, f"{x} claims membership in both rings"
                # decomposition x = a + b with a in Z[P1^-1], b in Z[P2^-1]
                g = math.gcd(den1, den2)
                if g != 1:
                    continue
                if den1 > 1 and den2 > 1:
                    _, inv1, inv2 = _egcd(den1, den2)
                    a = Fraction(num * inv2, den1)
                    b = Fraction(num * inv1, den2)
                    if a + b != x:
                        return False, f"partial fractions fail at {x}"
    return True, ""


def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y




# ---------------------------------------------------------------------------
# Exactness of localized sequences
# ---------------------------------------------------------------------------


class GroupHom:
    """Matrix map between finite groups given by cyclic orders: column j
    is the image of the j-th generator."""

    def __init__(self, src: FiniteTable, tgt: FiniteTable, matrix):
        self.src = src
        self.tgt = tgt
        self.matrix = [list(row) for row in matrix]  # rows: tgt gens
        for j, n in enumerate(src.orders):
            image = self.apply(tuple(n if i == j else 0 for i in range(len(src.orders))))
            if image != tgt.zero():
                raise ValueError(
                    f"matrix is not a well-defined homomorphism: generator {j} "
                    f"of order {n} maps to an element with n*image != 0"
                )

    def apply(self, a):
        if not self.tgt.orders:
            return ()
        out = []
        for i, n in enumerate(self.tgt.orders):
            total = sum(self.matrix[i][j] * a[j] for j in range(len(self.src.orders)))
            out.append(total % n)
        return tuple(out)


def sequence_exact(groups, maps) -> tuple:
    """Element-level exactness of 0 -> G0 -> G1 -> ... -> Gn -> 0 for
    ``FiniteTable`` groups and ``GroupHom`` maps; (ok, witness) of ``_exact``."""
    return _exact([g.elements() for g in groups], [hom.apply for hom in maps])


def _exact(stages, maps, where="") -> tuple:
    """Exactness of 0 -> S0 -> S1 -> ... -> Sn -> 0, each stage given by its
    elements (coordinate tuples; an element is zero when every coordinate
    is 0) and each map by a function: the first map injective, the last
    surjective, and kernel == image at every inner stage.  Returns (ok,
    witness), the witness prefixed by ``where``."""
    images = [{f(a) for a in stage} for stage, f in zip(stages, maps)]
    if len(images[0]) != len(stages[0]):
        return False, f"{where}first map not injective"
    if len(images[-1]) != len(stages[-1]):
        return False, f"{where}last map not surjective"
    for k in range(1, len(stages) - 1):
        kernel = {a for a in stages[k] if not any(maps[k](a))}
        if kernel != images[k - 1]:
            return False, (
                f"{where}stage {k}: kernel size {len(kernel)} vs image {len(images[k - 1])}"
            )
    return True, ""


def localize_table(table: FiniteTable, S: InvertedSet):
    """The localization map on an element table: returns (stable subset as
    new canonical map, mapping function)."""
    relevant = [p for p in sorted(_factor(table.order)) if S.inverts(p)]
    u = math.prod(relevant) if relevant else 1
    e = 0
    current = set(table.elements())
    while True:
        nxt = {table.scale(u, a) for a in current}
        if nxt == current:
            break
        current = nxt
        e += 1
    inverse_of_u = {table.scale(u, x): x for x in current}

    def loc(a):
        x = table.scale(u**e, a)
        for _ in range(e):
            x = inverse_of_u[x]
        return x

    return current, loc


def exactness_check(groups_orders, matrices, S: InvertedSet) -> Report:
    """Verify an exact sequence of finite groups stays exact after
    localization; the report distinguishes input failure from localization
    failure."""
    groups = [FiniteTable(o) for o in groups_orders]
    maps = [
        GroupHom(groups[k], groups[k + 1], matrices[k]) for k in range(len(matrices))
    ]
    report = Report(
        "localization preserves exactness",
        config={
            "sequence": " -> ".join(str(FGAbelianGroup(0, tuple(g.orders))) for g in groups),
            "inverted": str(S),
        },
    )
    ok, witness = sequence_exact(groups, maps)
    report.check(
        id="input-exact",
        anchor="the input sequence is exact",
        status=ok,
        witness=witness,
    )
    if not ok:
        return report
    localized = [localize_table(g, S) for g in groups]

    def induced(k):
        loc = localized[k + 1][1]
        return lambda a: loc(maps[k].apply(a))

    induced_maps = [induced(k) for k in range(len(maps))]
    if not report.scan(
        "induced-maps",
        "the induced maps are well-defined on the localizations",
        (
            f"induced map {k} not well-defined at {a}"
            for k, f in enumerate(induced_maps)
            for a in groups[k].elements()
            if f(a) != f(localized[k][1](a))
        ),
    ).status:
        return report
    # exactness at the element level on the stable subsets
    ok, witness = _exact([stable for stable, _ in localized], induced_maps, "localized ")
    report.check(
        id="localized-exact",
        anchor="the localized sequence is exact",
        status=ok,
        witness=witness,
    )
    return report
