import math
import random
from itertools import product as iproduct

import pytest

from _seqgen import random_short_exact
from bpcalc import abloc, cli
from bpcalc.errors import OracleError, ParseError
from bpcalc.abloc import (
    FGAbelianGroup,
    FiniteTable,
    GroupHom,
    InvertedSet,
    arithmetic_square,
    exactness_check,
    fraction_oracle,
    localize,
    localize_table,
    parse_group,
    sequence_exact,
    table_structure,
)


def all_groups_of_order(n):
    """Canonical forms of every abelian group of order n."""

    def partitions(k, maxpart=None):
        if k == 0:
            yield ()
            return
        maxpart = maxpart or k
        for first in range(min(k, maxpart), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    fac = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    per_prime = [[(p, part) for part in partitions(e)] for p, e in fac.items()]
    for combo in iproduct(*per_prime) if per_prime else [()]:
        orders = []
        for p, part in combo:
            orders.extend(p**k for k in part)
        yield tuple(orders)


def test_parse_and_canonical_form():
    assert parse_group("Z/12").torsion == (4, 3)
    assert str(parse_group("Z/12")) == "Z/4 + Z/3"
    assert parse_group("Z^2 + Z/12 + Z/5").rank == 2
    assert parse_group("Z").rank == 1
    assert parse_group("0") == FGAbelianGroup()
    with pytest.raises(ParseError):
        parse_group("Z/abc")


def test_localize_examples():
    z12 = parse_group("Z/12")
    at2 = localize(z12, InvertedSet({2}, complement=True))  # invert odd
    assert at2.group() == parse_group("Z/4")
    inv2 = localize(z12, InvertedSet({2}))
    assert inv2.group() == parse_group("Z/3")
    rat = localize(parse_group("Z + Z/5"), InvertedSet(rationalize=True))
    assert rat.rank == 1 and rat.torsion == ()
    assert str(rat) == "Q"


def is_s_local(M: FGAbelianGroup, S: InvertedSet) -> bool:
    """Multiplication by every inverted prime is bijective on M: the
    fixed-point oracle for localize."""
    if any(S.inverts(p) for p in M.torsion_primes()):
        return False
    if M.rank > 0 and (S.rationalize or S.complement or S.primes):
        return False
    return True


def test_is_s_local():
    assert is_s_local(parse_group("Z/3"), InvertedSet({2}))
    assert not is_s_local(parse_group("Z"), InvertedSet({2}))
    assert not is_s_local(parse_group("Z/4"), InvertedSet({2}))
    # agreement with localize fixed points
    for text in ("Z/3", "Z/4", "Z/15", "0"):
        M = parse_group(text)
        S = InvertedSet({2})
        assert is_s_local(M, S) == (localize(M, S).group() == M)


def test_fraction_oracle_examples():
    assert fraction_oracle([12], InvertedSet({2})) == parse_group("Z/3")
    assert fraction_oracle([12], InvertedSet({3})) == parse_group("Z/4")
    assert math.prod(fraction_oracle([12], InvertedSet({3})).torsion) == 4
    assert fraction_oracle([], InvertedSet({5})) == FGAbelianGroup()
    with pytest.raises(ValueError):
        fraction_oracle([2] * 20, InvertedSet({3}), max_order=1000)


def test_fraction_oracle_rejects_an_ill_defined_sum(monkeypatch, capsys):
    # an addition that is off by one in each coordinate makes the sum of two
    # classes depend on the representatives chosen
    def shifted(self, a, b):
        return tuple((x + y + 1) % n for x, y, n in zip(a, b, self.orders))

    monkeypatch.setattr(FiniteTable, "add", shifted)
    with pytest.raises(OracleError):
        fraction_oracle([10], InvertedSet({2}))
    argv = ["localize-group", "Z/10", "--invert", "2", "--oracle"]
    assert cli.main(argv) == cli.EXIT_CHECK_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: fraction oracle:")


def test_oracle_agrees_exhaustively_small():
    sets = [
        InvertedSet({2}),
        InvertedSet({3}),
        InvertedSet({2, 3}),
        InvertedSet({2}, complement=True),
        InvertedSet(rationalize=True),
    ]
    for n in range(1, 101):
        for orders in all_groups_of_order(n):
            M = FGAbelianGroup(0, orders)
            for S in sets:
                assert fraction_oracle(orders, S) == localize(M, S).group()


def test_localize_idempotent_and_commutes():
    rng = random.Random(7)
    for _ in range(60):
        orders = tuple(
            rng.choice([2, 3, 4, 5, 8, 9, 25, 7]) for _ in range(rng.randrange(4))
        )
        M = FGAbelianGroup(rng.randrange(3), orders)
        S1, S2 = InvertedSet({2}), InvertedSet({3, 5})
        once = localize(M, S1).group()
        assert localize(once, S1).group() == once
        both1 = localize(localize(M, S1).group(), S2).group()
        both2 = localize(M, InvertedSet({2, 3, 5})).group()
        assert both1 == both2


def test_localize_preserves_direct_sums():
    rng = random.Random(11)
    for _ in range(40):
        A = FGAbelianGroup(rng.randrange(2), (rng.choice([2, 4, 9]),))
        B = FGAbelianGroup(rng.randrange(2), (rng.choice([3, 5, 8]),))
        S = InvertedSet({rng.choice([2, 3, 5])})
        AB = FGAbelianGroup(A.rank + B.rank, A.torsion + B.torsion)
        A_S, B_S = localize(A, S).group(), localize(B, S).group()
        lhs = localize(AB, S).group()
        rhs = FGAbelianGroup(A_S.rank + B_S.rank, A_S.torsion + B_S.torsion)
        assert lhs == rhs


def test_arithmetic_square_z12():
    rep = arithmetic_square(parse_group("Z/12"), {2})
    assert rep.passed
    corners = {r.id: r for r in rep.records}["corners"].computed
    assert "Z/3" in corners and "Z/4" in corners and "0" in corners


def test_arithmetic_square_z_and_zero():
    assert arithmetic_square(parse_group("Z"), {2}).passed
    assert arithmetic_square(FGAbelianGroup(), {3}).passed
    assert arithmetic_square(parse_group("Z^2 + Z/30"), {2, 3}).passed


def test_table_structure_recovery():
    for orders in ((4,), (2, 2), (8, 3), (9, 27), (4, 4, 2)):
        t = FiniteTable(orders)
        assert table_structure(t) == FGAbelianGroup(0, orders)


def test_sequence_exact_and_hom_validation():
    with pytest.raises(ValueError):
        GroupHom(FiniteTable([2]), FiniteTable([4]), [[1]])
    groups = [FiniteTable([2]), FiniteTable([4]), FiniteTable([2])]
    maps = [
        GroupHom(groups[0], groups[1], [[2]]),
        GroupHom(groups[1], groups[2], [[1]]),
    ]
    ok, _ = sequence_exact(groups, maps)
    assert ok


def test_exactness_check_examples():
    rep = exactness_check([[2], [4], [2]], [[[2]], [[1]]], InvertedSet({3}))
    assert rep.passed  # localization is the identity here
    rep = exactness_check([[2], [4], [2]], [[[2]], [[1]]], InvertedSet({2}))
    assert rep.passed  # every term dies
    rep = exactness_check(
        [[3], [4, 3], [4]], [[[0], [1]], [[1, 0]]], InvertedSet({2})
    )
    assert rep.passed  # 0 -> Z/3 -> Z/3 -> 0 -> 0
    # one hand-built sequence per witness of the input record
    for orders, matrices, witness in [
        ([[2], [4], [2]], [[[0]], [[1]]], "first map not injective"),
        ([[2], [4], [4]], [[[2]], [[2]]], "last map not surjective"),
        ([[2], [4], [2]], [[[2]], [[0]]], "last map not surjective"),
        # Z/2 -> Z/4 + Z/2 -> Z/2: image {(0,0), (2,0)}, kernel {(x,0)}
        ([[2], [4, 2], [2]], [[[2], [0]], [[0, 1]]], "stage 1: kernel size 4 vs image 2"),
    ]:
        rep = exactness_check(orders, matrices, InvertedSet({3}))
        assert [(r.id, r.witness) for r in rep.failures()] == [("input-exact", witness)]
        groups = [FiniteTable(o) for o in orders]
        maps = [GroupHom(groups[k], groups[k + 1], m) for k, m in enumerate(matrices)]
        assert sequence_exact(groups, maps) == (False, witness)


def test_exactness_check_fails_on_a_perturbed_localization(monkeypatch):
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0 with 3 inverted: the localization is the
    # identity, so a correct check passes on both localized records
    orders, matrices, S = [[2], [4], [2]], [[[2]], [[1]]], InvertedSet({3})
    real = abloc.localize_table

    def zero_on_z2(table, S):
        # the zero map in place of the identity on Z/2: the induced map
        # Z/2 -> Z/4 would send 1 both to 2 and to 0
        stable, loc = real(table, S)
        return stable, (lambda a: table.zero()) if table.orders == (2,) else loc

    monkeypatch.setattr(abloc, "localize_table", zero_on_z2)
    rep = exactness_check(orders, matrices, S)
    assert [(r.id, r.witness) for r in rep.failures()] == [
        ("induced-maps", "induced map 0 not well-defined at (1,)")
    ]

    def dropping(table, S):
        # the localized Z/4 loses the element 2, the image of Z/2
        stable, loc = real(table, S)
        return (stable - {(2,)} if table.orders == (4,) else stable), loc

    monkeypatch.setattr(abloc, "localize_table", dropping)
    rep = exactness_check(orders, matrices, S)
    assert [(r.id, r.witness) for r in rep.failures()] == [
        ("localized-exact", "localized stage 1: kernel size 1 vs image 2")
    ]


def test_exactness_random_sweep():
    rng = random.Random(20260811)
    sets = [
        InvertedSet({2}),
        InvertedSet({3}),
        InvertedSet({2, 3}),
        InvertedSet({5}),
        InvertedSet({2}, complement=True),
    ]
    count = 0
    while count < 100:
        groups, maps = random_short_exact(rng)
        if math.prod(groups[1]) > 4000:
            continue
        S = rng.choice(sets)
        rep = exactness_check(groups, maps, S)
        assert rep.passed, (groups, [r.witness for r in rep.failures()])
        count += 1


def test_localize_table_is_canonical_map():
    t = FiniteTable([12])
    stable, loc = localize_table(t, InvertedSet({2}))
    assert len(stable) == 3
    # the canonical map is a homomorphism onto the stable part
    for a in t.elements():
        for b in t.elements():
            assert loc(t.add(a, b)) == t.add(loc(a), loc(b))


def test_fraction_oracle_sum_sample_reaches_nonzero_left_classes(monkeypatch):
    # Z/2 + Z/401 with 2 inverted: u = 2, e = 1, and 401 classes; the zero
    # class is the 2-torsion.  This addition is right whenever a summand lies
    # in the zero class and off by one elsewhere, so only a sampled pair
    # with a nonzero class on each side can expose it.
    def add(self, a, b):
        in_zero_class = any(
            all((2 * x) % n == 0 for x, n in zip(c, self.orders)) for c in (a, b)
        )
        shift = 0 if in_zero_class else 1
        return tuple((x + y + shift) % n for x, y, n in zip(a, b, self.orders))

    assert fraction_oracle([2, 401], InvertedSet({2})) == parse_group("Z/401")
    monkeypatch.setattr(FiniteTable, "add", add)
    with pytest.raises(OracleError):
        fraction_oracle([2, 401], InvertedSet({2}))


def test_index_tables_match_tuple_arithmetic():
    rng = random.Random(424242)
    for _ in range(40):
        for orders in random_short_exact(rng)[0]:
            t = FiniteTable(orders)
            elements = t.elements()
            assert [t.index(a) for a in elements] == list(range(t.order))
            for k in (2, 3, 6):
                scaled = t.scale_indices(k)
                assert [elements[j] for j in scaled] == [t.scale(k, a) for a in elements]
    assert FiniteTable([1]).scale_indices(5) == [0]
