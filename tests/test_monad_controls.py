"""A control for every record of ``check_monad`` and ``verify_universal_props``:
an input under which that record fails, with the witness it reports.

The ``check_monad`` controls are hand-built tables.  A table that passes
the monad axioms makes every ``verify_universal_props`` record true, so
those controls keep such a monad (a library one, or the identity monad on
``cyclic2``) and substitute the class S and the local objects D that
``derive_S_D`` hands over.
"""

import pytest

from bpcalc import catfrac
from bpcalc.catfrac import (
    MonadData,
    check_monad,
    cyclic2,
    library_monads,
    make_category,
    mutant_monads,
    verify_universal_props,
)


def _mutant(name):
    return next((C, M) for n, C, M in mutant_monads() if n == name)


def _library(name):
    return next((C, M) for n, C, M in library_monads() if n == name)


def _cyclic2(mor_map, eta):
    return cyclic2(), MonadData({"e": "e"}, mor_map, {"e": eta})


def _nilpotent_unit():
    """One object, endomorphisms 1, a, z with a a = z absorbing; E sends a
    to z and the unit is a.  The unit is natural, but E(a) = z != a."""
    C = make_category(
        ("e",),
        {"a": ("e", "e"), "z": ("e", "e")},
        {("a", "a"): "z", ("a", "z"): "z", ("z", "a"): "z", ("z", "z"): "z"},
    )
    return C, MonadData({"e": "e"}, {"id_e": "id_e", "a": "z", "z": "z"}, {"e": "a"})


def _interval_with_unit(eta):
    C, M = _library("interval/collapse")
    return C, MonadData(M.obj_map, M.mor_map, eta)


# record id -> (the table, the records that fail, the record's witness)
MONAD_CONTROLS = {
    "table-wellformed": (
        lambda: _mutant("interval/collapse-to-bottom"),
        ["table-wellformed"],
        "morphism u maps to u with wrong endpoints",
    ),
    "functoriality": (
        lambda: _cyclic2({"id_e": "s", "s": "s"}, "id_e"),
        ["functoriality"],
        "E(id_e) != id_Ee",
    ),
    "transformation-wellformed": (
        lambda: _interval_with_unit({"x0": "id_x0", "x1": "id_x1"}),
        ["transformation-wellformed"],
        "eta_x0 = id_x0 is not a map x0 -> Ex0",
    ),
    "naturality": (
        lambda: _cyclic2({"id_e": "id_e", "s": "id_e"}, "id_e"),
        ["naturality"],
        "naturality fails at s",
    ),
    "axiom-idempotent": (
        _nilpotent_unit,
        ["axiom-idempotent", "axiom-equivalence"],
        "E(eta_e) != eta_Ee",
    ),
    "axiom-equivalence": (
        lambda: _mutant("chain3/shift-up"),
        ["axiom-equivalence"],
        "E(eta_x0) = b is not an equivalence",
    ),
}


@pytest.mark.parametrize("record", sorted(MONAD_CONTROLS))
def test_check_monad_control(record):
    build, failing, witness = MONAD_CONTROLS[record]
    report = check_monad(*build())
    assert [r.id for r in report.failures()] == failing
    assert next(r for r in report.records if r.id == record).witness == witness


# record id -> (library monad, S minus identities, D, the records that
# fail, the record's witness)
UNIVERSAL_CONTROLS = {
    "adjunction-bijection": (
        "interval/collapse",
        set(),
        {"x0", "x1"},
        ["adjunction-bijection", "four-characterizations", "fractions-factorization"],
        "[Ex0, x0] -> [x0, x0] not a bijection",
    ),
    "class-detection": (
        "chain3/identity",
        set(),
        {"x0", "x2"},
        ["class-detection", "object-detection", "four-characterizations"],
        "morphism b: inverted-by-E is False but f* bijectivity is True",
    ),
    "object-detection": (
        "interval/collapse",
        {"u"},
        set(),
        ["object-detection", "four-characterizations"],
        "object x1: local=False, f* bijective=True, f* epi=True",
    ),
    "four-characterizations": (
        "interval/collapse",
        {"u"},
        set(),
        ["object-detection", "four-characterizations"],
        "morphism id_x1: conditions (i)=True (ii)=False (iii)=True (iv)=False",
    ),
    "derived-class-fraction-axioms": (
        "square/collapse-verticals",
        {"v0"},
        {"p01", "p11"},
        ["class-detection", "four-characterizations", "derived-class-fraction-axioms"],
        "square-completion",
    ),
    "two-out-of-six": (
        "cyclic2/identity",
        set(),
        {"e"},
        [
            "class-detection",
            "four-characterizations",
            "two-out-of-six",
            "projection-inverts-exactly-S",
        ],
        "two-out-of-six fails at (s, s, s)",
    ),
    "fractions-factorization": (
        "interval/collapse",
        set(),
        {"x0", "x1"},
        ["adjunction-bijection", "four-characterizations", "fractions-factorization"],
        "not full on hom(x1,x0)",
    ),
    "projection-inverts-exactly-S": (
        "cyclic2/identity",
        set(),
        {"e"},
        [
            "class-detection",
            "four-characterizations",
            "two-out-of-six",
            "projection-inverts-exactly-S",
        ],
        "difference ['s']",
    ),
}


def _universal_case(name):
    if name == "cyclic2/identity":
        return _cyclic2({"id_e": "id_e", "s": "s"}, "id_e")
    return _library(name)


@pytest.mark.parametrize("record", sorted(UNIVERSAL_CONTROLS))
def test_universal_props_control(monkeypatch, record):
    name, marked, local, failing, witness = UNIVERSAL_CONTROLS[record]
    C, M = _universal_case(name)
    S = frozenset(marked) | frozenset(C.identities.values())
    # derive_S_D itself would return the class E inverts and its locals
    assert catfrac.derive_S_D(C, M) != (S, frozenset(local))
    monkeypatch.setattr(catfrac, "derive_S_D", lambda C, M: (S, frozenset(local)))
    report = verify_universal_props(C, M)
    assert [r.id for r in report.failures()] == failing
    assert next(r for r in report.records if r.id == record).witness == witness


def test_fractions_factorization_fails_on_a_marked_map_e_does_not_invert(monkeypatch):
    # a marked morphism whose E-image has no inverse is a failed record
    # naming it, not a KeyError from composing with a missing inverse
    C, M = _library("chain3/identity")
    S = frozenset({"a"}) | frozenset(C.identities.values())
    monkeypatch.setattr(catfrac, "derive_S_D", lambda C, M: (S, frozenset(C.objects)))
    report = verify_universal_props(C, M)
    record = next(r for r in report.records if r.id == "fractions-factorization")
    assert not record.status
    assert record.witness == "E(a) = a has no inverse"


def test_every_record_has_a_control():
    for name, C, M in library_monads():
        assert {r.id for r in check_monad(C, M).records} == set(MONAD_CONTROLS)
        assert {r.id for r in verify_universal_props(C, M).records} == set(
            UNIVERSAL_CONTROLS
        )
    # the substitution controls start from monads that pass their axioms
    assert check_monad(*_universal_case("cyclic2/identity")).passed
