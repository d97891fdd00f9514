"""Seeded input generators for the bpcalc benchmark.

Every generator draws from a ``random.Random`` that the caller seeds, so a
seed fixes the inputs. Nothing here imports bpcalc: the program under test
receives only the literals and tables made here.

The draws are stratified so that two seeds give op lists of about the same
cost: an eval pass uses every monomial once, and the oracle's work per
group and the sequences' middle-group orders are drawn from fixed narrow
bands, so the seed varies the inputs within a band but not the work per
pass, the spread of op sizes or the largest op.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The three commutator identities and the two derived triple identities, as
# CLI operation literals; each one is the zero operation.
RELATIONS = (
    "R[1]R[p] - R[p]R[1] - R[0,1]",
    "R[1]R[0,1] - R[0,1]R[1]",
    "R[p]R[0,1] - R[0,1]R[p]",
    "R[p]R[1]R[1] - 2*R[1]R[p]R[1] + R[1]R[1]R[p]",
    "R[p]R[p]R[1] - 2*R[p]R[1]R[p] + R[1]R[p]R[p]",
)

# Terms per polynomial for the lowest, middle and top third of the
# monomials by degree: the heaviest monomials go alone, so the slowest ops
# are about the same for every seed.
EVAL_TERMS = (3, 2, 1)


def v_monomials(p: int, indices: int = 3) -> list:
    """Exponent tuples of v1..v<indices> monomials of degree <= 2(p^3 - 1),
    the constant excluded, sorted by (degree, exponents)."""
    bound = 2 * (p**3 - 1)
    degs = [2 * (p**i - 1) for i in range(1, indices + 1)]
    out = []

    def rec(i, remaining, exps):
        if i == indices:
            if any(exps):
                out.append(tuple(exps))
            return
        for e in range(remaining // degs[i] + 1):
            rec(i + 1, remaining - e * degs[i], exps + [e])

    rec(0, bound, [])
    return sorted(out, key=lambda e: (sum(a * d for a, d in zip(e, degs)), e))


def monomial_literal(exps) -> str:
    return "*".join(
        f"v{i}" if e == 1 else f"v{i}^{e}" for i, e in enumerate(exps, start=1) if e
    )


def _coefficient(rng) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n])
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def vpoly_literal(rng, monomials, terms: int) -> str:
    """A polynomial literal with ``terms`` distinct monomials and nonzero
    rational coefficients, in the grammar ``[coef '*'] gens``."""
    chunks = []
    for exps in rng.sample(monomials, terms):
        c = _coefficient(rng)
        mag = abs(c)
        body = monomial_literal(exps)
        if mag != 1:
            body = f"{mag}*{body}"
        sign = "-" if c < 0 else "+"
        chunks.append((sign, body))
    first_sign, first = chunks[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def eval_ops(rng, primes, seen: set) -> list:
    """(prime, relation, polynomial) triples that use every monomial of
    ``v_monomials(p)`` exactly once per prime. Each third of the monomials
    by degree is shuffled and cut into polynomials of ``EVAL_TERMS`` terms;
    the polynomials, sorted by degree, are dealt the five relations in turn
    from a seeded offset. The seed chooses the grouping, the coefficients
    and which relation meets which polynomial, while the work per pass and
    the spread of op sizes stay about the same for every seed. ``seen``
    holds the triples drawn so far in the run, so none repeats."""
    ops = []
    for p in primes:
        monos = v_monomials(p)
        size = len(monos)
        rank = {m: i for i, m in enumerate(monos)}
        polys = []
        for k, terms in enumerate(EVAL_TERMS):
            third = monos[k * size // 3 : (k + 1) * size // 3]
            rng.shuffle(third)
            polys += [third[i : i + terms] for i in range(0, len(third), terms)]
        polys.sort(key=lambda chunk: max(rank[m] for m in chunk))
        offset = rng.randrange(len(RELATIONS))
        for i, chunk in enumerate(polys):
            relation = RELATIONS[(i + offset) % len(RELATIONS)]
            while True:
                op = (p, relation, vpoly_literal(rng, chunk, len(chunk)))
                if op not in seen:
                    break
            seen.add(op)
            ops.append(op)
    rng.shuffle(ops)
    return ops


# -- abelian groups ---------------------------------------------------------

GROUP_PRIMES = (2, 3, 5, 7)
GROUP_ORDERS = (1000, 10**4)
# Twelve bands of oracle work (see ``oracle_work``), each about 33% wide,
# from 2000 to 60000. Time and memory of ``fraction_oracle`` grow with the
# work, not with the order alone: |G| = 8192 with 2 inverted is 12 times
# the work of |G| = 8192 with 11 inverted.
WORK_BANDS = tuple(
    (round(2000 * 30 ** (k / 12)), round(2000 * 30 ** ((k + 1) / 12))) for k in range(12)
)


def _prime_power_factors(n: int) -> list:
    out = []
    for p in GROUP_PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    return out if n == 1 else []


def _split_exponent(rng, e: int) -> list:
    """A random partition of e, so p^e splits into cyclic factors."""
    parts = []
    while e:
        k = rng.randint(1, e)
        parts.append(k)
        e -= k
    return parts


_SMOOTH_ORDERS = [n for n in range(*GROUP_ORDERS) if _prime_power_factors(n)]


def group_orders(rng) -> list:
    """Cyclic prime-power orders of a finite group whose order lies in
    ``GROUP_ORDERS`` and has only the primes 2, 3, 5, 7."""
    n = rng.choice(_SMOOTH_ORDERS)
    orders = []
    for p, e in _prime_power_factors(n):
        orders.extend(p**k for k in _split_exponent(rng, e))
    rng.shuffle(orders)
    return orders


def inverted_primes(rng, orders) -> tuple:
    """Primes to invert: a nonempty proper subset of the primes dividing
    the group order, so the localization deletes some factors and keeps
    others; for a p-group, either p or 11, which divides no order here."""
    primes = sorted({min(p for p in GROUP_PRIMES if n % p == 0) for n in orders})
    if len(primes) == 1:
        return tuple(primes) if rng.random() < 0.5 else (11,)
    k = rng.randint(1, len(primes) - 1)
    return tuple(sorted(rng.sample(primes, k)))


def oracle_work(orders, inverted) -> int:
    """|G| (e + 1): the (element, denominator) pairs ``fraction_oracle``
    builds, where e, the largest exponent of a cyclic factor whose prime
    is inverted, is how many powers of the inverted primes it needs."""
    e = 0
    for n in orders:
        for p, k in _prime_power_factors(n):
            if p in inverted:
                e = max(e, k)
    return math.prod(orders) * (e + 1)


def abloc_groups(rng, per_band: int, seen: set) -> list:
    """(orders, inverted primes) pairs, ``per_band`` from each work band."""
    out = []
    for lo, hi in WORK_BANDS:
        for _ in range(per_band):
            while True:
                orders = group_orders(rng)
                inv = inverted_primes(rng, orders)
                key = (tuple(sorted(orders)), inv)
                if lo <= oracle_work(orders, inv) < hi and key not in seen:
                    break
            seen.add(key)
            out.append((orders, inv))
    return out


def square_groups(rng, count: int, seen: set) -> list:
    """(rank, torsion orders, P1) inputs for the arithmetic square: small
    groups with a free part and a nonempty set P1 of primes."""
    out = []
    while len(out) < count:
        rank = rng.randint(1, 2)
        torsion = [rng.choice((2, 3, 4, 5, 8, 9, 25, 27)) for _ in range(rng.randint(1, 3))]
        P1 = tuple(sorted(rng.sample((2, 3, 5), rng.randint(1, 2))))
        key = (rank, tuple(sorted(torsion)), P1)
        if key in seen:
            continue
        seen.add(key)
        out.append(key)
    return out


# -- short exact sequences ----------------------------------------------------

# Inverted sets for the exactness sweep, as (primes, complement).
EXACTNESS_SETS = (
    ((2,), False),
    ((3,), False),
    ((2, 3), False),
    ((5,), False),
    ((2,), True),
)


def random_short_exact(rng):
    """0 -> A -> B -> C -> 0 with B either split-with-shear or a cyclic
    extension direct-summed with a split part; maps as generator matrices.
    Same construction as the test suite's generator, kept separate so the
    benchmark does not import the tests."""
    smalls = [2, 3, 4, 5, 8, 9]
    A = [rng.choice(smalls) for _ in range(rng.randrange(1, 3))]
    C = [rng.choice(smalls) for _ in range(rng.randrange(1, 3))]
    if rng.random() < 0.4:
        p = rng.choice([2, 3])
        a, b = rng.randrange(1, 3), rng.randrange(1, 3)
        A = [p**a] + A[:1]
        C = [p**b] + C[:1]
        B = [p ** (a + b)] + A[1:] + C[1:]
        iA = [[0] * len(A) for _ in range(len(B))]
        iA[0][0] = p**b
        for k in range(len(A) - 1):
            iA[1 + k][1 + k] = 1
        piC = [[0] * len(B) for _ in range(len(C))]
        piC[0][0] = 1
        for k in range(len(C) - 1):
            piC[1 + k][len(A) + k] = 1
        return [A, B, C], [iA, piC]
    B = A + C
    phi = []
    for n in C:
        row = []
        for m in A:
            g = math.gcd(m, n)
            row.append(rng.randrange(g) * (n // g))
        phi.append(row)
    iA = [[1 if i == j else 0 for j in range(len(A))] for i in range(len(A))]
    iA += phi
    piC = [
        [-phi[i][j] for j in range(len(A))]
        + [1 if k == i else 0 for k in range(len(C))]
        for i, k in zip(range(len(C)), range(len(C)))
    ]
    return [A, B, C], [iA, piC]


# |B| bands for the exactness sweep, whose cost grows with the middle
# group's order: twelve, each about 68% wide, from 8 to 4096.
SEQUENCE_BANDS = tuple(
    (round(8 * 512 ** (k / 12)), round(8 * 512 ** ((k + 1) / 12))) for k in range(12)
)


def exact_sequences(rng, per_band: int, seen: set) -> list:
    """``per_band`` distinct (groups, maps, inverted set) triples whose
    middle group's order lies in each of ``SEQUENCE_BANDS``."""
    out = []
    for lo, hi in SEQUENCE_BANDS:
        found = 0
        while found < per_band:
            groups, maps = random_short_exact(rng)
            if not lo <= math.prod(groups[1]) < hi:
                continue
            inv = rng.choice(EXACTNESS_SETS)
            key = repr((groups, maps, inv))
            if key in seen:
                continue
            seen.add(key)
            out.append((groups, maps, inv))
            found += 1
    return out


# -- product categories -------------------------------------------------------


def product_pairs(rng, n: int) -> list:
    """Every unordered pair {i, j} of the n library entries, self-pairs
    included, each in a seeded orientation and the list in seeded order:
    n(n+1)/2 ordered pairs, so every seed covers the same factor sizes."""
    pairs = []
    for i in range(n):
        for j in range(i, n):
            pairs.append((i, j) if rng.random() < 0.5 else (j, i))
    rng.shuffle(pairs)
    return pairs
