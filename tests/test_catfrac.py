import pytest

from bpcalc.errors import ParseError
from bpcalc.catfrac import (
    FiniteCategory,
    MonadData,
    ShortWord,
    chain3,
    check_fraction_axioms,
    check_monad,
    coequalizer_shape,
    cyclic2,
    derive_S_D,
    interval,
    library,
    library_monads,
    localize,
    make_category,
    mutant_monads,
    parse_category_file,
    square_poset,
    verify_universal_props,
    zigzag_oracle,
)


def ids_of(C):
    return frozenset(C.identities.values())


def test_category_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        # missing composite b.a
        make_category(
            ("x", "y", "z"), {"a": ("x", "y"), "b": ("y", "z")}, {}
        )
    with pytest.raises(ValueError):
        # wrong endpoints for the declared composite
        make_category(
            ("x", "y", "z"),
            {"a": ("x", "y"), "b": ("y", "z"), "c": ("y", "z")},
            {("b", "a"): "c"},
        )


def test_associativity_validated():
    G = cyclic2()
    assert G.compose("s", "s") == "id_e"
    # (a.a).a = b.a = id but a.(a.a) = a.b = b: rejected exhaustively
    with pytest.raises(ValueError):
        make_category(
            ("e",),
            {"a": ("e", "e"), "b": ("e", "e")},
            {
                ("a", "a"): "b",
                ("a", "b"): "b",
                ("b", "a"): "id_e",
                ("b", "b"): "b",
            },
        )


def test_fraction_axioms_examples():
    C = chain3()
    assert check_fraction_axioms(C, frozenset(C.morphisms)).passed
    assert check_fraction_axioms(C, ids_of(C)).passed
    G = cyclic2()
    assert check_fraction_axioms(G, frozenset(G.morphisms)).passed


def test_fraction_axioms_failure_reported():
    C = chain3()
    # {ids, b} is closed, but {ids, c} fails square completion:
    # s = c: x0 -> x2 against f = a: x0 -> x1 has no completion through x2
    S = ids_of(C) | {"c"}
    rep = check_fraction_axioms(C, S)
    assert not rep.passed
    assert any(r.id == "square-completion" for r in rep.failures())


@pytest.mark.parametrize(
    "build, marked, record, witness",
    [
        (chain3, {"a", "b"}, "closure-under-composition", "b.a = c outside S"),
        (chain3, {"c"}, "square-completion", "no completion of (s=c, f=a)"),
        (
            coequalizer_shape,
            {"s"},
            "equalizer-completion",
            "no equalizing t for (s=s, f=f, g=g)",
        ),
    ],
)
def test_fraction_axiom_controls(build, marked, record, witness):
    C = build()
    rep = check_fraction_axioms(C, ids_of(C) | marked)
    assert {r.id: r.witness for r in rep.failures()} == {record: witness}


def test_fraction_axioms_report_a_class_naming_unknown_morphisms():
    # completion is not defined on a name outside the category: the report
    # comes back with both completions failed, never a KeyError or a pass
    C = chain3()
    rep = check_fraction_axioms(C, ids_of(C) | {"zz", "a"})
    failed = {r.id: r.witness for r in rep.failures()}
    assert failed == {
        "class-wellformed": "zz",
        "square-completion": "not in the category: zz",
        "equalizer-completion": "not in the category: zz",
    }


def test_whole_library_passes_axioms():
    entries = library()
    assert len(entries) >= 6
    for name, C, S in entries:
        rep = check_fraction_axioms(C, S)
        assert rep.passed, (name, [r.id for r in rep.failures()])


def test_localize_first_step_example():
    C = chain3()
    L, Q, _ = localize(C, ids_of(C) | {"a"})
    assert len(L.hom("x1", "x0")) == 1  # the inverse appears
    assert len(L.hom("x0", "x2")) == 1  # a single class
    assert L.is_invertible(Q["a"])
    assert not L.is_invertible(Q["b"])


def test_localize_identities_gives_isomorphic_copy():
    C = chain3()
    L, Q, _ = localize(C, ids_of(C))
    # Q is a bijection on morphisms preserving composition: an isomorphism
    assert len(L.morphisms) == len(C.morphisms)
    assert len(set(Q.values())) == len(C.morphisms)
    for g, f in C.composable_pairs():
        assert Q[C.compose(g, f)] == L.compose(Q[g], Q[f])


def test_localize_all_morphisms_groupoid_completion():
    C = chain3()
    L, Q, _ = localize(C, frozenset(C.morphisms))
    assert all(L.is_invertible(m) for m in L.morphisms)
    # a poset localized at everything has exactly one map between any two
    # objects (it collapses to the indiscrete preorder on the chain)
    for x in C.objects:
        for y in C.objects:
            assert len(L.hom(x, y)) == 1


def test_localize_rejects_bad_class():
    C = chain3()
    with pytest.raises(ValueError):
        localize(C, ids_of(C) | {"c"})


def test_localized_category_validates_internally():
    # the constructed localization passes the full category validation,
    # which exercises associativity of composition of classes
    for name, C, S in library():
        L, Q, _ = localize(C, S)
        assert set(Q.values()) <= set(L.morphisms)


def test_zigzag_identities_bijects_with_homsets():
    C = chain3()
    for x in C.objects:
        for y in C.objects:
            classes = zigzag_oracle(C, ids_of(C), x, y)
            assert len(classes) == len(C.hom(x, y))


def test_zigzag_interval_inverse_class():
    I = interval()
    classes = zigzag_oracle(I, frozenset(I.morphisms), "x1", "x0")
    assert len(classes) == 1


def test_zigzag_matches_localize_on_library():
    for name, C, S in library():
        L, _, _ = localize(C, S)
        for x in C.objects:
            for y in C.objects:
                oracle = zigzag_oracle(C, S, x, y)
                assert len(oracle) == len(L.hom(x, y)), (name, x, y)


def test_coequalizer_shape_merges_parallel_pair():
    C = coequalizer_shape()
    S = frozenset(C.identities.values()) | {"s", "t"}
    L, Q, _ = localize(C, S)
    # f and g are equalized by s and coequalized by t, so they merge
    assert Q["f"] == Q["g"]
    oracle = zigzag_oracle(C, S, "X", "Y")
    assert len(oracle) == len(L.hom("X", "Y"))


def test_monad_library_passes():
    for name, C, M in library_monads():
        rep = check_monad(C, M)
        assert rep.passed, (name, [r.id for r in rep.failures()])


def test_monad_mutants_rejected():
    mutants = mutant_monads()
    assert len(mutants) == 2
    for name, C, M in mutants:
        rep = check_monad(C, M)
        assert not rep.passed, name


def test_derive_S_D_examples():
    entries = dict((n, (C, M)) for n, C, M in library_monads())
    C, M = entries["interval/collapse"]
    S, D = derive_S_D(C, M)
    assert S == frozenset(C.morphisms)
    assert D == frozenset({"x1"})
    C, M = entries["chain3/identity"]
    S, D = derive_S_D(C, M)
    assert S == frozenset(C.identities.values())  # only isomorphisms
    assert D == frozenset(C.objects)


def test_derive_S_D_refuses_mutants():
    for name, C, M in mutant_monads():
        with pytest.raises(ValueError):
            derive_S_D(C, M)


def test_universal_props_on_library_monads():
    for name, C, M in library_monads():
        rep = verify_universal_props(C, M)
        assert rep.passed, (name, [r.id for r in rep.failures()])


def test_universal_props_refuses_corrupted_monad():
    I = interval()
    corrupted = MonadData(
        {"x0": "x1", "x1": "x1"},
        {"id_x0": "id_x1", "id_x1": "id_x1", "u": "id_x1"},
        {"x0": "id_x0", "x1": "id_x1"},  # non-natural unit
        name="corrupted",
    )
    assert not check_monad(I, corrupted).passed
    with pytest.raises(ValueError):
        verify_universal_props(I, corrupted)


def test_parse_category_file_roundtrip():
    text = """
    # interval with collapse monad
    objects: x0 x1
    mor u : x0 -> x1
    class S = { u }
    functor E = { x0: x1, x1: x1 | u: id_x1 }
    nat eta E = { x0: u, x1: id_x1 }
    """
    C, classes, monads = parse_category_file(text)
    assert C.hom("x0", "x1") == ["u"]
    assert classes["S"] == frozenset({"u", "id_x0", "id_x1"})
    assert check_monad(C, monads["E"]).passed


def test_parse_category_rejects_partial_tables():
    text = """
    objects: x y z
    mor a : x -> y
    mor b : y -> z
    """
    with pytest.raises(ParseError):
        parse_category_file(text)
    with pytest.raises(ParseError):
        parse_category_file("objects: x\nmor f : x -> w\n")
    with pytest.raises(ParseError):
        parse_category_file("mor f : x -> y\n")


def test_short_word_type():
    w = ShortWord("f", "s")
    assert w.f == "f" and w.s == "s"


def _product(C, D):
    """C x D built as the benchmark's product categories are: objects
    ``x.y``, arrows ``(f,g)`` unless both are identities."""

    def obj(x, y):
        return f"{x}.{y}"

    def name(f, g):
        if C.is_identity(f) and D.is_identity(g):
            return f"id_{obj(C.src(f), D.src(g))}"
        return f"({f},{g})"

    objects = [obj(x, y) for x in C.objects for y in D.objects]
    arrows = {
        name(f, g): (obj(s1, s2), obj(t1, t2))
        for f, (s1, t1) in C.morphisms.items()
        for g, (s2, t2) in D.morphisms.items()
        if not (C.is_identity(f) and D.is_identity(g))
    }
    comps = {}
    for f1, f2 in C.composable_pairs():
        for g1, g2 in D.composable_pairs():
            outer, inner = name(f1, g1), name(f2, g2)
            if not (outer.startswith("id_") or inner.startswith("id_")):
                comps[(outer, inner)] = name(C.compose(f1, f2), D.compose(g1, g2))
    return make_category(objects, arrows, comps, name=f"{C.name}x{D.name}")


def _scanned_hom(C, x, y):
    return [f for f, (s, t) in sorted(C.morphisms.items()) if s == x and t == y]


def test_hom_index_matches_a_sorted_scan():
    entries = [C for _, C, _ in library()]
    categories = entries + [_product(C, D) for C in entries for D in entries]
    for C in categories:
        for x in C.objects:
            for y in C.objects:
                assert C.hom(x, y) == _scanned_hom(C, x, y), (C.name, x, y)


def test_hom_returns_a_fresh_list():
    C = coequalizer_shape()
    got = C.hom("X", "Y")
    assert got == ["f", "g"]
    got.append("h")
    got.sort(reverse=True)
    assert C.hom("X", "Y") == ["f", "g"]


def test_product_with_a_corrupted_composite_fails_associativity():
    P = _product(coequalizer_shape(), chain3())
    comp = dict(P.comp)
    key = ("(f,id_x1)", "(id_X,a)")
    assert comp[key] == "(f,a)"
    # (g,a) is parallel to (f,a), so the endpoint and identity checks pass
    comp[key] = "(g,a)"
    with pytest.raises(
        ValueError, match=r"associativity fails at \(\(id_Y,b\), \(f,id_x1\), \(id_X,a\)\)"
    ):
        FiniteCategory(P.objects, P.morphisms, P.identities, comp)
