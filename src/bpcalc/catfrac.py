"""Finite-category calculus of fractions and idempotent-monad checks.

Everything here is decidable by enumeration: categories are given by a
total composition table (validated exhaustively on load), a marked class
of morphisms supports the fraction axioms (closure under composition,
square completion, equalizer completion), and localization is built from
short words (f, s) -- a forward morphism and a backward marked morphism
sharing a codomain -- modulo the completion-search equivalence.

An independent zig-zag oracle recomputes the localized hom-sets as the
least congruence inverting the marked class on the free zig-zag graph,
explored up to a stabilizing word length.

The axiom and monad checks search for counterexamples lazily and record
each through ``Report.scan``: a pass, or a failure with the first
counterexample in enumeration order as its witness.  The conditions on
precomposition f*: [Y, Z] -> [X, Z] (bijective, onto, unique lifts) are
all read off its fibres.

Category description files use the line grammar::

    objects: x y z
    mor f : x -> y
    compose g f = h          # g after f
    class S = { f, g }
    functor E = { x: y, y: y | f: id_y, g: g }
    nat eta = { x: f, y: id_y }

Identities id_x are implicit; composition lines must cover every other
composable pair (partial tables are rejected).  Every functor needs a
``nat`` line giving its unit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .errors import ParseError
from .report import Report


class FiniteCategory:
    """Enumerated category: objects, morphisms, identities, total composition."""

    def __init__(self, objects, morphisms, identities, comp, name="C"):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)  # id -> (src, tgt)
        self.identities = dict(identities)  # object -> morphism id
        self.comp = dict(comp)  # (g, f) -> g.f  for f then g
        # hom-sets as tuples sorted by name, and the arrows out of each
        # object in declaration order; both built once, read by every query
        homs, out = {}, {x: [] for x in self.objects}
        for f in sorted(self.morphisms):
            homs.setdefault(self.morphisms[f], []).append(f)
        for f, (s, _) in self.morphisms.items():
            out.setdefault(s, []).append(f)
        self.homs = {k: tuple(v) for k, v in homs.items()}
        self.out = {k: tuple(v) for k, v in out.items()}
        self._validate()

    # -- basic queries ---------------------------------------------------

    def src(self, f):
        return self.morphisms[f][0]

    def tgt(self, f):
        return self.morphisms[f][1]

    def is_identity(self, f):
        return self.identities.get(self.src(f)) == f and self.src(f) == self.tgt(f)

    def compose(self, g, f):
        """g after f."""
        if self.tgt(f) != self.src(g):
            raise ValueError(f"{g} after {f}: not composable")
        return self.comp[(g, f)]

    def hom(self, x, y):
        """The morphisms x -> y sorted by name, as a fresh list."""
        return list(self.homs.get((x, y), ()))

    def composable_pairs(self):
        for f, (_, ft) in self.morphisms.items():
            for g in self.out[ft]:
                yield g, f

    def inverse(self, f):
        """Two-sided inverse if one exists, else None."""
        for g in self.hom(self.tgt(f), self.src(f)):
            if self.compose(g, f) == self.identities[self.src(f)] and self.compose(
                f, g
            ) == self.identities[self.tgt(f)]:
                return g
        return None

    def is_invertible(self, f):
        return self.inverse(f) is not None

    def isomorphic_objects(self, x, y):
        return any(self.is_invertible(f) for f in self.hom(x, y))

    # -- validation -------------------------------------------------------

    def _validate(self):
        for f, (s, t) in self.morphisms.items():
            if s not in self.objects or t not in self.objects:
                raise ValueError(f"morphism {f} has unknown endpoint")
        for x in self.objects:
            i = self.identities.get(x)
            if i is None or self.morphisms.get(i) != (x, x):
                raise ValueError(f"object {x} lacks an identity")
        for g, f in self.composable_pairs():
            if (g, f) not in self.comp:
                raise ValueError(f"composition table missing ({g}, {f})")
            h = self.comp[(g, f)]
            if self.morphisms.get(h) != (self.src(f), self.tgt(g)):
                raise ValueError(f"composite {g}.{f} = {h} has wrong endpoints")
        for (g, f), h in self.comp.items():
            if self.tgt(f) != self.src(g):
                raise ValueError(f"composition table has non-composable ({g}, {f})")
        for f in self.morphisms:
            if self.comp[(f, self.identities[self.src(f)])] != f:
                raise ValueError(f"right identity law fails at {f}")
            if self.comp[(self.identities[self.tgt(f)], f)] != f:
                raise ValueError(f"left identity law fails at {f}")
        comp = self.comp
        for g, f in self.composable_pairs():
            gf = comp[(g, f)]
            for h in self.out[self.tgt(g)]:
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    raise ValueError(f"associativity fails at ({h}, {g}, {f})")

    def __repr__(self):
        return (
            f"FiniteCategory({self.name}: {len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


def make_category(objects, arrows, compositions, name="C"):
    """Assemble a category from non-identity arrows and composition rules.

    ``arrows``: {name: (src, tgt)}; ``compositions``: {(g, f): h} for
    non-identity composable pairs.  Identities id_x and their composites
    are filled in automatically.
    """
    morphisms = {f"id_{x}": (x, x) for x in objects}
    identities = {x: f"id_{x}" for x in objects}
    dup = set(morphisms) & set(arrows)
    if dup:
        raise ValueError(f"arrow names clash with identities: {dup}")
    morphisms.update(arrows)
    comp = {}
    for f, (s, t) in morphisms.items():
        comp[(f, identities[s])] = f
        comp[(identities[t], f)] = f
    for (g, f), h in compositions.items():
        comp[(g, f)] = h
    return FiniteCategory(objects, morphisms, identities, comp, name=name)


# ---------------------------------------------------------------------------
# Fraction axioms
# ---------------------------------------------------------------------------


def _marked_out(C, S):
    """object -> the marked morphisms out of it, sorted by name."""
    out = {}
    for t in sorted(S):
        out.setdefault(C.src(t), []).append(t)
    return out


def _marked_homs(C, S):
    """(x, y) -> the marked morphisms x -> y, sorted by name."""
    out = {}
    for t in sorted(S):
        out.setdefault(C.morphisms[t], []).append(t)
    return out


def _square_gaps(C, S, marked_out, out_sorted):
    """The pairs (s, f) with no square completion, as witnesses."""
    comp = C.comp
    for s in sorted(S):
        x, y = C.morphisms[s]
        # the composites g s, grouped by the target of g
        through_s = {}
        for g in C.out[y]:
            through_s.setdefault(C.tgt(g), set()).add(comp[(g, s)])
        for f in out_sorted[x]:
            if not any(
                comp[(t, f)] in through_s.get(C.tgt(t), ())
                for t in marked_out.get(C.tgt(f), ())
            ):
                yield f"no completion of (s={s}, f={f})"


def _equalizer_gaps(C, S, marked_out, out_sorted):
    """The triples (s, f, g) with f s = g s and no equalizing t, as witnesses."""
    comp = C.comp
    for s in sorted(S):
        y = C.tgt(s)
        for f in out_sorted[y]:
            fs = comp[(f, s)]
            z = C.tgt(f)
            for g in C.homs[(y, z)]:
                if g <= f or comp[(g, s)] != fs:
                    continue
                if not any(
                    comp[(t, f)] == comp[(t, g)] for t in marked_out.get(z, ())
                ):
                    yield f"no equalizing t for (s={s}, f={f}, g={g})"


def check_fraction_axioms(C: FiniteCategory, S) -> Report:
    """Exhaustive check of closure under composition, square completion,
    and equalizer completion for the marked class S.  A class naming
    morphisms the category lacks fails both completions, which are not
    defined on them, with those names as the witness."""
    S = frozenset(S)
    report = Report(f"fraction axioms for S on {C.name}", config={"category": C.name})
    unknown = S - set(C.morphisms)
    names = ", ".join(sorted(unknown))
    report.check(
        id="class-wellformed",
        anchor="S is a subset of the category's morphisms containing identities",
        status=not unknown and all(i in S for i in C.identities.values()),
        witness=names,
    )
    report.scan(
        "closure-under-composition",
        "S is closed under finite compositions",
        (
            f"{g}.{f} = {C.compose(g, f)} outside S"
            for g, f in C.composable_pairs()
            if f in S and g in S and C.compose(g, f) not in S
        ),
    )
    undefined = [f"not in the category: {names}"] if unknown else []
    marked_out = _marked_out(C, S - unknown)
    out_sorted = {x: sorted(C.out[x]) for x in C.objects}
    report.scan(
        "square-completion",
        "given s in S and f with a common source, there are g and "
        "t in S with g s = t f",
        chain(undefined, _square_gaps(C, S, marked_out, out_sorted)),
    )
    report.scan(
        "equalizer-completion",
        "given s in S with f s = g s, some t in S has t f = t g",
        chain(undefined, _equalizer_gaps(C, S, marked_out, out_sorted)),
    )
    return report


# ---------------------------------------------------------------------------
# Localization by short words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShortWord:
    """(Qs)^(-1) (Qf): forward morphism f and backward marked morphism s
    sharing a codomain."""

    f: str
    s: str


def _short_words(C, marked, x, y):
    words = []
    for w in C.objects:
        for f in C.homs.get((x, w), ()):
            for s in marked.get((y, w), ()):
                words.append(ShortWord(f, s))
    return words


def _words_equivalent(C, S, w1: ShortWord, w2: ShortWord) -> bool:
    """Search all completions (g1, g2) with g1 f1 = g2 f2 and
    g1 s1 = g2 s2 in S; exhaustive, no heuristics."""
    comp = C.comp
    y1, y2 = C.tgt(w1.f), C.tgt(w2.f)
    for y3 in C.objects:
        homs2 = C.homs.get((y2, y3), ())
        for g1 in C.homs.get((y1, y3), ()):
            g1f1 = comp[(g1, w1.f)]
            for g2 in homs2:
                if g1f1 != comp[(g2, w2.f)]:
                    continue
                through = comp[(g1, w1.s)]
                if through == comp[(g2, w2.s)] and through in S:
                    return True
    return False


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self):
        groups = {}
        for i in self.parent:
            groups.setdefault(self.find(i), []).append(i)
        return [sorted(v) for v in sorted(groups.values())]


class FractionAxiomsError(ValueError):
    """``localize`` was given a class that fails the fraction axioms;
    ``report`` holds the axiom records."""

    def __init__(self, report: Report):
        super().__init__(
            "marked class fails the fraction axioms: "
            + "; ".join(r.id for r in report.failures())
        )
        self.report = report


def localize(C: FiniteCategory, S):
    """The category of fractions with its projection functor.

    Returns (L, Q, classes) where L is a FiniteCategory whose morphisms are
    equivalence classes of short words, Q maps each morphism of C to its
    class, and classes maps the new morphism names back to representative
    short words.  Requires the fraction axioms (checked first; a class
    that fails them raises FractionAxiomsError).
    """
    S = frozenset(S)
    axioms = check_fraction_axioms(C, S)
    if not axioms.passed:
        raise FractionAxiomsError(axioms)

    marked = _marked_homs(C, S)
    class_rep = {}  # (x, y) -> list of representative ShortWords
    word_class = {}  # (x, y, word) -> class index
    for x in C.objects:
        for y in C.objects:
            words = _short_words(C, marked, x, y)
            uf = _UnionFind(range(len(words)))
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    if _words_equivalent(C, S, words[i], words[j]):
                        uf.union(i, j)
            groups = uf.classes()
            class_rep[(x, y)] = [words[g[0]] for g in groups]
            for gi, group in enumerate(groups):
                for i in group:
                    word_class[(x, y, words[i])] = gi

    names = {}
    morphisms = {}
    for (x, y), reps in sorted(class_rep.items()):
        for gi, rep in enumerate(reps):
            name = f"[{rep.f}|{rep.s}]"
            names[(x, y, gi)] = name
            morphisms[name] = (x, y)

    def class_of(x, y, word):
        gi = word_class.get((x, y, word))
        if gi is None:
            raise ValueError(f"word {word} not found in hom({x}, {y})")
        return names[(x, y, gi)]

    objects_sorted = sorted(C.objects)

    def compose_words(w2: ShortWord, w1: ShortWord):
        """(w2 after w1) via a square completion of (s1, f2)."""
        c = C.comp
        w, w_ = C.tgt(w1.f), C.tgt(w2.f)
        for y3 in objects_sorted:
            homs = C.homs.get((w, y3), ())
            for t in marked.get((w_, y3), ()):
                tf2 = c[(t, w2.f)]
                for g in homs:
                    if c[(g, w1.s)] == tf2:
                        return ShortWord(c[(g, w1.f)], c[(t, w2.s)])
        raise ValueError("square completion not found (axioms should forbid this)")

    comp = {}
    for (x, y), reps1 in class_rep.items():
        for (y2, z), reps2 in class_rep.items():
            if y2 != y:
                continue
            for g1, rep1 in enumerate(reps1):
                for g2, rep2 in enumerate(reps2):
                    word = compose_words(rep2, rep1)
                    comp[(names[(y, z, g2)], names[(x, y, g1)])] = class_of(
                        x, z, word
                    )

    identities = {}
    for x in C.objects:
        idw = ShortWord(C.identities[x], C.identities[x])
        identities[x] = class_of(x, x, idw)

    L = FiniteCategory(
        C.objects, morphisms, identities, comp, name=f"{C.name}[S^-1]"
    )
    Q = {
        f: class_of(C.src(f), C.tgt(f), ShortWord(f, C.identities[C.tgt(f)]))
        for f in C.morphisms
    }
    for s in S:
        if not L.is_invertible(Q[s]):
            raise ValueError(f"Q({s}) failed to become invertible")
    return L, Q, class_rep


# ---------------------------------------------------------------------------
# The zig-zag oracle
# ---------------------------------------------------------------------------


def _zigzag_edges(C, S):
    """Letters of the zig-zag graph: forward non-identities and backward
    marked morphisms (identity letters are normalized away)."""
    edges = []
    for f in sorted(C.morphisms):
        if not C.is_identity(f):
            edges.append((("f", f), C.src(f), C.tgt(f)))
    for s in sorted(S):
        if not C.is_identity(s):
            edges.append((("i", s), C.tgt(s), C.src(s)))
    return edges


def _letter_endpoints(C, letter):
    kind, m = letter
    if kind == "f":
        return C.src(m), C.tgt(m)
    return C.tgt(m), C.src(m)


def _word_neighbors(C, S, word, start, cap):
    """All words one rewrite away: compose/expand adjacent forwards,
    cancel/insert marked pairs, merge/split adjacent backwards, and insert
    factorizations of identities.  Rewrites preserve both endpoints."""
    out = set()
    n = len(word)
    ids = set(C.identities.values())

    # contractions and cancellations
    for i in range(n - 1):
        a, b = word[i], word[i + 1]
        if a[0] == "f" and b[0] == "f":
            h = C.compose(b[1], a[1])
            out.add(word[:i] + ((("f", h),) if h not in ids else ()) + word[i + 2 :])
        if a[0] == "f" and b[0] == "i" and a[1] == b[1]:
            out.add(word[:i] + word[i + 2 :])
        if a[0] == "i" and b[0] == "f" and a[1] == b[1]:
            out.add(word[:i] + word[i + 2 :])
        if a[0] == "i" and b[0] == "i":
            h = C.compose(a[1], b[1])
            if h in S:
                out.add(
                    word[:i] + ((("i", h),) if h not in ids else ()) + word[i + 2 :]
                )
    # expansions of single letters into pairs
    if n + 1 <= cap:
        for i in range(n):
            kind, m = word[i]
            for g, f in C.composable_pairs():
                if C.comp[(g, f)] != m or g in ids or f in ids:
                    continue
                if kind == "f":
                    out.add(word[:i] + (("f", f), ("f", g)) + word[i + 1 :])
                elif g in S and f in S:
                    out.add(word[:i] + (("i", g), ("i", f)) + word[i + 1 :])
    # insertions at a boundary: cancelling marked pairs and identity
    # factorizations (covers rewriting through an identity)
    if n + 2 <= cap:
        boundary_objs = [start]
        for letter in word:
            boundary_objs.append(_letter_endpoints(C, letter)[1])
        for i, obj in enumerate(boundary_objs):
            for s in sorted(S):
                if s in ids:
                    continue
                if C.src(s) == obj:
                    out.add(word[:i] + (("f", s), ("i", s)) + word[i:])
                if C.tgt(s) == obj:
                    out.add(word[:i] + (("i", s), ("f", s)) + word[i:])
            for g, f in C.composable_pairs():
                if g in ids or f in ids:
                    continue
                if C.comp[(g, f)] in ids and C.src(f) == obj:
                    out.add(word[:i] + (("f", f), ("f", g)) + word[i:])
    return {w for w in out if len(w) <= cap}


def _zigzag_classes(C, S, x, y, cap):
    by_source = {}
    for letter, s, t in _zigzag_edges(C, S):
        by_source.setdefault(s, []).append((letter, t))
    words_at = {(): x}
    frontier = [((), x)]
    while frontier:
        word, obj = frontier.pop()
        if len(word) >= cap:
            continue
        for letter, t in by_source.get(obj, ()):
            cand = word + (letter,)
            if cand not in words_at:
                words_at[cand] = t
                frontier.append((cand, t))
    words = set(words_at)
    uf = _UnionFind(sorted(words))
    for w in sorted(words):
        for nb in _word_neighbors(C, S, w, x, cap):
            if nb in words:
                uf.union(w, nb)
    target = [w for w in sorted(words) if words_at[w] == y]
    groups = {}
    for w in target:
        groups.setdefault(uf.find(w), []).append(w)
    return [sorted(v) for v in sorted(groups.values(), key=lambda v: v[0])]


def zigzag_oracle(C: FiniteCategory, S, x, y):
    """Hom-classes from x to y in the localization, computed independently
    of the short-word construction: brute-force closure over alternating
    words under the least congruence inverting S, explored with increasing
    word-length caps until the class count stabilizes."""
    S = frozenset(S)
    base_cap = len(C.objects) + 2
    classes = _zigzag_classes(C, S, x, y, base_cap)
    for attempt in range(1, 4):
        again = _zigzag_classes(C, S, x, y, base_cap + attempt)
        if len(again) == len(classes):
            return again
        classes = again
    return classes


# ---------------------------------------------------------------------------
# Idempotent monads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonadData:
    """Endofunctor table and transformation components."""

    obj_map: dict  # object -> object
    mor_map: dict  # morphism -> morphism
    eta: dict  # object -> morphism id (component X -> EX)
    name: str = "E"


def check_monad(C: FiniteCategory, M: MonadData) -> Report:
    """Functoriality, naturality, and the two idempotency axioms,
    verified objectwise with witnesses.  A table that is not well formed,
    not functorial, or has a unit of the wrong shape stops the report
    there, since the later checks read those entries."""
    report = Report(f"idempotent monad axioms for {M.name} on {C.name}")
    E, Ef, eta = M.obj_map, M.mor_map, M.eta
    if not report.scan(
        "table-wellformed",
        "E assigns objects to objects and morphisms to morphisms "
        "with matching endpoints",
        chain(
            (f"object {x} has no image" for x in C.objects if E.get(x) not in C.objects),
            (
                f"morphism {f} maps to {Ef.get(f)} with wrong endpoints"
                for f, (s, t) in C.morphisms.items()
                if C.morphisms.get(Ef.get(f)) != (E[s], E[t])
            ),
        ),
    ).status:
        return report
    if not report.scan(
        "functoriality",
        "E preserves identities and composition",
        chain(
            (
                f"E(id_{x}) != id_E{x}"
                for x in C.objects
                if Ef[C.identities[x]] != C.identities[E[x]]
            ),
            (
                f"E(g f) != E(g) E(f) at ({g}, {f})"
                for g, f in C.composable_pairs()
                if Ef[C.compose(g, f)] != C.compose(Ef[g], Ef[f])
            ),
        ),
    ).status:
        return report
    if not report.scan(
        "transformation-wellformed",
        "eta_X is a morphism X -> EX for every X",
        (
            f"eta_{x} = {eta.get(x)} is not a map {x} -> E{x}"
            for x in C.objects
            if C.morphisms.get(eta.get(x)) != (x, E[x])
        ),
    ).status:
        return report
    report.scan(
        "naturality",
        "eta_Y f = E(f) eta_X for every f: X -> Y",
        (
            f"naturality fails at {f}"
            for f, (s, t) in C.morphisms.items()
            if C.compose(eta[t], f) != C.compose(Ef[f], eta[s])
        ),
    )
    report.scan(
        "axiom-idempotent",
        "E eta_X = eta_EX",
        (f"E(eta_{x}) != eta_E{x}" for x in C.objects if Ef[eta[x]] != eta[E[x]]),
    )
    report.scan(
        "axiom-equivalence",
        "the common value E eta_X = eta_EX is an equivalence EX -> E^2 X",
        (
            f"E(eta_{x}) = {Ef[eta[x]]} is not an equivalence"
            for x in C.objects
            if not C.is_invertible(Ef[eta[x]])
        ),
    )
    return report


def derive_S_D(C: FiniteCategory, M: MonadData):
    """S = maps inverted by E; D computed both ways (retracts of values,
    objects whose unit is an equivalence) and asserted equal."""
    rep = check_monad(C, M)
    if not rep.passed:
        raise ValueError("monad axioms fail; derive_S_D refuses to run")
    S = frozenset(f for f in C.morphisms if C.is_invertible(M.mor_map[f]))
    D_values = frozenset(
        x
        for x in C.objects
        if any(C.isomorphic_objects(x, M.obj_map[y]) for y in C.objects)
    )
    D_unit = frozenset(x for x in C.objects if C.is_invertible(M.eta[x]))
    if D_values != D_unit:
        raise ValueError(
            f"the two characterizations of D disagree: {sorted(D_values)} "
            f"vs {sorted(D_unit)} (corrupted monad data)"
        )
    return S, D_unit


def verify_universal_props(C: FiniteCategory, M: MonadData) -> Report:
    """Adjunction bijection, the S/D determinations, the four equivalent
    descriptions of a localization map, and the factorization through the
    category of fractions, all by finite enumeration.

    Quantifications over the whole category are decided exhaustively;
    reports note this is finite-scale verification only.
    """
    S, D = derive_S_D(C, M)  # refuses a monad that fails its axioms
    report = Report(
        f"universal properties of ({M.name}, eta) on {C.name}",
        config={"category": C.name, "S": ",".join(sorted(S)), "D": ",".join(sorted(D))},
    )
    E, eta = M.obj_map, M.eta

    def fibres(f, z):
        """Precomposition f*: [Y, Z] -> [X, Z] by its fibres: each h in
        [X, Z] with the list of g in [Y, Z] that have g f = h."""
        fibre = {h: [] for h in C.homs.get((C.src(f), z), ())}
        for g in C.homs.get((C.tgt(f), z), ()):
            fibre[C.comp[(g, f)]].append(g)
        return fibre

    def bijective(f, z):
        return all(len(gs) == 1 for gs in fibres(f, z).values())

    report.scan(
        "adjunction-bijection",
        "precomposition with eta_X: [EX, Y] -> [X, Y] is a bijection "
        "for Y local",
        (
            f"[E{x}, {y}] -> [{x}, {y}] not a bijection"
            for x in C.objects
            for y in C.objects
            if y in D and not bijective(eta[x], y)
        ),
        note="finite-scale verification only",
    )
    # f* bijective for every local Z: class detection's right side, and
    # condition (iv) below
    universal = {f for f in C.morphisms if all(bijective(f, z) for z in D)}
    report.scan(
        "class-detection",
        "f is inverted by E iff f*: [Y, Z] -> [X, Z] is bijective "
        "for every local Z",
        (
            f"morphism {f}: inverted-by-E is {f in S} but f* bijectivity is "
            f"{f in universal}"
            for f in sorted(C.morphisms)
            if (f in S) != (f in universal)
        ),
    )

    def object_gaps():
        for z in C.objects:
            every = [gs for f in S for gs in fibres(f, z).values()]
            bij, epi = all(len(gs) == 1 for gs in every), all(every)
            if not (z in D) == bij == epi:
                yield f"object {z}: local={z in D}, f* bijective={bij}, f* epi={epi}"

    report.scan(
        "object-detection",
        "Z is local iff f* is bijective (epi suffices) for every f in S",
        object_gaps(),
    )

    def characterization_gaps():
        for f in sorted(C.morphisms):
            x, y = C.morphisms[f]
            cond_i = any(
                C.is_invertible(phi) and C.compose(phi, f) == eta[x]
                for phi in C.hom(y, E[x])
            )
            cond_ii = f in S and y in D
            # couniversal: f lifts uniquely along every s in S out of X
            cond_iii = f in S and all(
                len(fibres(s, y)[f]) == 1 for s in S if C.src(s) == x
            )
            cond_iv = y in D and f in universal
            if not cond_i == cond_ii == cond_iii == cond_iv:
                yield (
                    f"morphism {f}: conditions (i)={cond_i} (ii)={cond_ii} "
                    f"(iii)={cond_iii} (iv)={cond_iv}"
                )

    report.scan(
        "four-characterizations",
        "unit-up-to-equivalence == (in S and local target) == "
        "(couniversal in S) == (universal into locals)",
        characterization_gaps(),
        note="finite-scale verification only",
    )

    frac = check_fraction_axioms(C, S)
    report.check(
        id="derived-class-fraction-axioms",
        anchor="the class inverted by E satisfies closure, square "
        "completion, and equalizer completion",
        status=frac.passed,
        witness="; ".join(r.id for r in frac.failures()),
    )
    out = {x: sorted(C.out[x]) for x in C.objects}
    report.scan(
        "two-out-of-six",
        "gf and hg invertible under E force g invertible under E",
        (
            f"two-out-of-six fails at ({f}, {g}, {h})"
            for f in sorted(C.morphisms)
            for g in out[C.tgt(f)]
            if g not in S
            for h in out[C.tgt(g)]
            if C.comp[(g, f)] in S and C.comp[(h, g)] in S
        ),
    )

    if frac.passed:
        L, Q, class_rep = localize(C, S)
        # the factorization C -> S^-1 C -> D: objects X -> EX, short word
        # (f, s) -> (Es)^(-1) (Ef)
        functor_ok = True
        witness = ""
        for (x, y), reps in sorted(class_rep.items()):
            inverses = [C.inverse(M.mor_map[rep.s]) for rep in reps]
            if None in inverses:
                s = reps[inverses.index(None)].s
                functor_ok, witness = False, f"E({s}) = {M.mor_map[s]} has no inverse"
                break
            images = [
                C.compose(inv, M.mor_map[rep.f]) for inv, rep in zip(inverses, reps)
            ]
            # faithful + full onto hom_C(EX, EY)
            if sorted(set(images)) != sorted(images):
                functor_ok, witness = False, f"not faithful on hom({x},{y})"
                break
            if sorted(images) != C.hom(E[x], E[y]):
                functor_ok, witness = False, f"not full on hom({x},{y})"
                break
        ess_surjective = all(
            any(C.isomorphic_objects(d, E[x]) for x in C.objects) for d in D
        )
        report.check(
            id="fractions-factorization",
            anchor="the induced functor S^-1 C -> D is essentially "
            "surjective, full, and faithful",
            status=functor_ok and ess_surjective,
            witness=witness,
        )
        inverted = frozenset(f for f in C.morphisms if L.is_invertible(Q[f]))
        report.check(
            id="projection-inverts-exactly-S",
            anchor="the projection to the category of fractions inverts "
            "exactly the class derived from E",
            status=inverted == S,
            witness=""
            if inverted == S
            else f"difference {sorted(inverted ^ S)}",
        )
    return report


# ---------------------------------------------------------------------------
# Category description files
# ---------------------------------------------------------------------------


def parse_category_file(text: str):
    """Parse the line grammar into (category, classes, monads).

    ``classes`` maps class names to frozensets of morphism ids (identities
    are always added); ``monads`` maps functor names to MonadData, in
    ``nat`` order.  Every functor needs a ``nat`` line giving its unit.
    """
    objects = []
    arrows = {}
    compositions = {}
    classes = {}
    functors = {}
    nats = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^objects\s*:\s*(.+)$", line)
        if m:
            objects.extend(m.group(1).split())
            continue
        m = re.match(r"^mor\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)$", line)
        if m:
            arrows[m.group(1)] = (m.group(2), m.group(3))
            continue
        m = re.match(r"^compose\s+(\w+)\s+(\w+)\s*=\s*(\w+)$", line)
        if m:
            compositions[(m.group(1), m.group(2))] = m.group(3)
            continue
        m = re.match(r"^class\s+(\w+)\s*=\s*\{(.*)\}$", line)
        if m:
            members = {w.strip() for w in m.group(2).split(",") if w.strip()}
            classes[m.group(1)] = members
            continue
        m = re.match(r"^functor\s+(\w+)\s*=\s*\{(.*)\}$", line)
        if m:
            body = m.group(2)
            if "|" not in body:
                raise ParseError(
                    f"line {lineno}: functor needs 'objects | morphisms'"
                )
            obj_part, mor_part = body.split("|", 1)
            obj_map = _parse_mapping(obj_part, lineno)
            mor_map = _parse_mapping(mor_part, lineno)
            functors[m.group(1)] = (obj_map, mor_map)
            continue
        m = re.match(r"^nat\s+(\w+)\s+(\w+)\s*=\s*\{(.*)\}$", line)
        if m:
            nats[m.group(1)] = (m.group(2), _parse_mapping(m.group(3), lineno))
            continue
        raise ParseError(f"line {lineno}: cannot parse {raw!r}")
    if not objects:
        raise ParseError("no objects declared")
    try:
        C = make_category(objects, arrows, compositions)
    except (ValueError, KeyError) as exc:
        raise ParseError(f"invalid category: {exc}") from exc
    out_classes = {}
    for name, members in classes.items():
        unknown = members - set(C.morphisms)
        if unknown:
            raise ParseError(f"class {name} lists unknown morphisms {unknown}")
        out_classes[name] = frozenset(members) | frozenset(C.identities.values())
    etas = {}
    for nat_name, (fun_name, eta) in nats.items():
        if fun_name not in functors:
            raise ParseError(f"nat {nat_name} references unknown functor {fun_name}")
        etas[fun_name] = eta
    for fun_name in functors:
        if fun_name not in etas:
            raise ParseError(f"functor {fun_name} has no unit (no nat line)")
    monads = {}
    for fun_name, eta in etas.items():
        obj_map, mor_map = functors[fun_name]
        full_mor = dict(mor_map)
        for x, i in C.identities.items():
            full_mor.setdefault(i, C.identities.get(obj_map.get(x, x)))
        monads[fun_name] = MonadData(obj_map, full_mor, eta, name=fun_name)
    return C, out_classes, monads


def _parse_mapping(body: str, lineno: int) -> dict:
    out = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ParseError(f"line {lineno}: bad mapping entry {chunk!r}")
        k, v = chunk.split(":", 1)
        out[k.strip()] = v.strip()
    return out


# ---------------------------------------------------------------------------
# Regression library
# ---------------------------------------------------------------------------


def chain3():
    return make_category(
        ("x0", "x1", "x2"),
        {"a": ("x0", "x1"), "b": ("x1", "x2"), "c": ("x0", "x2")},
        {("b", "a"): "c"},
        name="chain3",
    )


def interval():
    return make_category(("x0", "x1"), {"u": ("x0", "x1")}, {}, name="interval")


def cyclic2():
    return make_category(
        ("e",),
        {"s": ("e", "e")},
        {("s", "s"): "id_e"},
        name="cyclic2",
    )


def square_poset():
    return make_category(
        ("p00", "p01", "p10", "p11"),
        {
            "v0": ("p00", "p01"),
            "v1": ("p10", "p11"),
            "h0": ("p00", "p10"),
            "h1": ("p01", "p11"),
            "dg": ("p00", "p11"),
        },
        {("v1", "h0"): "dg", ("h1", "v0"): "dg"},
        name="square",
    )


def coequalizer_shape():
    """W -s-> X with two distinct parallel maps X => Y equalized on the
    left by s and coequalized on the right by t; exercises the equalizer
    completion axiom with a genuinely non-trivial merge."""
    return make_category(
        ("W", "X", "Y", "Z"),
        {
            "s": ("W", "X"),
            "f": ("X", "Y"),
            "g": ("X", "Y"),
            "m": ("W", "Y"),
            "t": ("Y", "Z"),
            "n": ("X", "Z"),
            "w": ("W", "Z"),
        },
        {
            ("f", "s"): "m",
            ("g", "s"): "m",
            ("t", "f"): "n",
            ("t", "g"): "n",
            ("t", "m"): "w",
            ("n", "s"): "w",
        },
        name="coequalizer",
    )


def library():
    """Regression library: (name, category, marked class) triples, each
    passing the fraction axioms."""
    entries = []
    C = chain3()
    ids = frozenset(C.identities.values())
    entries.append(("chain3/all", C, frozenset(C.morphisms)))
    entries.append(("chain3/identities", C, ids))
    entries.append(("chain3/first-step", C, ids | {"a"}))
    I = interval()
    entries.append(("interval/all", I, frozenset(I.morphisms)))
    G = cyclic2()
    entries.append(("cyclic2/all", G, frozenset(G.morphisms)))
    Q = square_poset()
    entries.append(
        ("square/verticals", Q, frozenset(Q.identities.values()) | {"v0", "v1"})
    )
    E = coequalizer_shape()
    entries.append(
        ("coequalizer/st", E, frozenset(E.identities.values()) | {"s", "t"})
    )
    return entries


def library_monads():
    """(name, category, MonadData) triples satisfying the axioms."""
    I = interval()
    collapse = MonadData(
        {"x0": "x1", "x1": "x1"},
        {"id_x0": "id_x1", "id_x1": "id_x1", "u": "id_x1"},
        {"x0": "u", "x1": "id_x1"},
        name="collapse-to-top",
    )
    C = chain3()
    identity = MonadData(
        {x: x for x in C.objects},
        {f: f for f in C.morphisms},
        {x: C.identities[x] for x in C.objects},
        name="identity",
    )
    Q = square_poset()
    collapse_vertical = MonadData(
        {"p00": "p01", "p01": "p01", "p10": "p11", "p11": "p11"},
        {
            "id_p00": "id_p01",
            "id_p01": "id_p01",
            "id_p10": "id_p11",
            "id_p11": "id_p11",
            "v0": "id_p01",
            "v1": "id_p11",
            "h0": "h1",
            "h1": "h1",
            "dg": "h1",
        },
        {"p00": "v0", "p01": "id_p01", "p10": "v1", "p11": "id_p11"},
        name="collapse-verticals",
    )
    return [
        ("interval/collapse", I, collapse),
        ("chain3/identity", C, identity),
        ("square/collapse-verticals", Q, collapse_vertical),
    ]


def mutant_monads():
    """Seeded mutants the checker must reject: a non-functorial table and
    a shift that is idempotent-in-name only (unit not an equivalence)."""
    I = interval()
    bad_constant = MonadData(
        {"x0": "x0", "x1": "x0"},
        # no morphism x1 -> x0 exists, so no functorial table can realize a
        # collapse to the bottom: E(u) cannot have endpoints (x0, x0)
        {"id_x0": "id_x0", "id_x1": "id_x0", "u": "u"},
        {"x0": "id_x0", "x1": "id_x1"},
        name="collapse-to-bottom",
    )
    C = chain3()
    shift = MonadData(
        {"x0": "x1", "x1": "x2", "x2": "x2"},
        {
            "id_x0": "id_x1",
            "id_x1": "id_x2",
            "id_x2": "id_x2",
            "a": "b",
            "b": "id_x2",
            "c": "b",
        },
        {"x0": "a", "x1": "b", "x2": "id_x2"},
        name="shift-up",
    )
    return [("interval/collapse-to-bottom", I, bad_constant), ("chain3/shift-up", C, shift)]
