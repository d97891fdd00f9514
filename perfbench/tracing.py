"""Per-layer tracing from outside the program.

The tracer replaces named bpcalc functions and methods with wrappers that
time each call. A name is patched wherever it is looked up: on its class
for methods, and in every bpcalc module that binds the function, since
``hopf``, ``opcalc`` and ``cli`` import ``grading`` names directly.

Each op is one root span, kept in memory. Inside an op the wrappers keep
only a stack of open spans and add each finished span into per-function
aggregates, so memory does not grow with the number of calls:

* ``calls``: finished calls;
* ``total_s``: time inside the outermost active call of the function, so
  recursion is not counted twice;
* ``self_s``: time inside the function minus the time inside the wrapped
  functions it called;
* ``distinct_ratio``: distinct argument values / calls, both counted
  within one op and summed over ops, so 1 - distinct_ratio is the share of
  calls that repeat an earlier call of the same op.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction
from time import perf_counter

_ATOMS = (int, str, bool, float, Fraction, type(None), bytes)


@dataclasses.dataclass(frozen=True)
class Spec:
    """A traced function: metric prefix, owner (class or module),
    attribute names bound to it, and what to report."""

    name: str
    owner: object
    attrs: tuple
    report: tuple = ("calls", "self_s", "total_s")
    count: object = None  # fn(counters, args) adding coverage counts

    @property
    def distinct(self) -> bool:
        return "distinct_ratio" in self.report


@dataclasses.dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    distinct: int = 0


def specs(bp) -> list:
    """The traced functions, layer by layer."""
    g, h, o, c, a = bp.grading, bp.hopf, bp.opcalc, bp.catfrac, bp.abloc

    def cat_homs(counters, args):
        counters["catfrac.homsets_checked"] += len(args[0].objects) ** 2

    def cat_oracle(counters, args):
        counters["catfrac.homsets_checked"] += 1

    def cat_axioms(counters, args):
        counters["catfrac.morphisms_covered"] += len(args[0].morphisms)

    def ab_elements(counters, args):
        counters["abloc.fraction_oracle.elements"] += math.prod(args[0])

    every = ("calls", "self_s", "total_s", "distinct_ratio")
    counted = ("calls", "self_s")
    total = ("total_s",)
    return [
        Spec("arith.padic_valuation", bp.arith, ("padic_valuation",), counted),
        Spec("grading.Context.init", g.Context, ("__init__",), counted),
        Spec("grading.Context.to_v_basis", g.Context, ("to_v_basis",), every),
        Spec("grading.Context.to_m_basis", g.Context, ("to_m_basis",), every),
        Spec("grading.Poly.substitute", g.Poly, ("substitute",), every),
        Spec("grading.Poly.pow", g.Poly, ("__pow__",), every),
        Spec("grading.Poly.mul", g.Poly, ("__mul__", "__rmul__"), every),
        Spec("grading.Poly.add", g.Poly, ("__add__", "__radd__"), every),
        Spec("grading.reduce_mod", g, ("reduce_mod",), counted),
        Spec("grading.canonical_mod", g, ("canonical_mod",), counted),
        Spec("grading.divide_exact", g, ("divide_exact",), counted),
        Spec("grading.monomials_up_to", g, ("monomials_up_to",), counted),
        Spec("hopf.TensorPoly.mul", h.TensorPoly, ("__mul__",), every),
        Spec("hopf.TensorPoly.pow", h.TensorPoly, ("__pow__",), every),
        Spec("hopf.eta_r", h, ("eta_r",), every),
        Spec("hopf.r_action_table", h, ("r_action_table",), every),
        Spec("hopf.psi_t", h, ("psi_t",), every),
        Spec("hopf.coassociativity_check", h, ("coassociativity_check",), ("self_s",)),
        Spec("hopf.pair_word", h, ("pair_word",), every),
        Spec("hopf.psi_monomial", h, ("psi_monomial",), every),
        Spec("hopf.r_action", h, ("r_action",), every),
        Spec("opcalc.act", o, ("act",), every),
        Spec("opcalc.check_complex", o, ("check_complex",), total),
        Spec("opcalc.verify_lemma_7_3", o, ("verify_lemma_7_3",), total),
        Spec("opcalc.lemma75_check", o, ("lemma75_check",), total),
        Spec("opcalc.lemma77_check", o, ("lemma77_check",), total),
        Spec("opcalc.gamma1_pipeline", o, ("gamma1_pipeline",), total),
        Spec("opcalc.indeterminacy_scan", o, ("indeterminacy_scan",), total),
        Spec("opcalc.verify_lemma_7_9", o, ("verify_lemma_7_9",), total),
        Spec("opcalc.ext1_invariant", o, ("ext1_invariant",), total),
        Spec("opcalc.betap_pipeline", o, ("betap_pipeline",), total),
        Spec("catfrac.check_fraction_axioms", c, ("check_fraction_axioms",), total, count=cat_axioms),
        Spec("catfrac.localize", c, ("localize",), total, count=cat_homs),
        Spec("catfrac.zigzag_oracle", c, ("zigzag_oracle",), total, count=cat_oracle),
        Spec("catfrac.check_monad", c, ("check_monad",), total),
        Spec("catfrac.verify_universal_props", c, ("verify_universal_props",), total),
        Spec("abloc.fraction_oracle", a, ("fraction_oracle",), total, count=ab_elements),
        Spec("abloc.localize", a, ("localize",), total),
        Spec("abloc.exactness_check", a, ("exactness_check",), total),
        Spec("abloc.arithmetic_square", a, ("arithmetic_square",), total),
        Spec("report.to_json", bp.report.Report, ("to_json",), total),
        Spec("cli.run_verify", bp.cli, ("run_verify",), total),
        Spec("cli.main", bp.cli, ("main",), ("calls",)),
    ]


LAYERS = ("arith", "grading", "hopf", "opcalc", "catfrac", "abloc", "report", "cli")
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "distinct_ratio": "ratio"}

COUNTERS = (
    "catfrac.homsets_checked",
    "catfrac.morphisms_covered",
    "abloc.fraction_oracle.elements",
)


class Tracer:
    """Install with ``install()``, bracket each op with ``begin_op`` and
    ``end_op``, remove with ``uninstall()``."""

    def __init__(self, bp):
        self.bp = bp
        self.specs = specs(bp)
        self.stats = {s.name: Stat() for s in self.specs}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.roots = []  # (label, start, end, self_s) per op
        # Open spans: [child seconds]. The base frame takes calls made
        # outside any op so the stack is never empty.
        self._stack = [[0.0]]
        self._depth = {s.name: 0 for s in self.specs}
        self._keys = {s.name: set() for s in self.specs if s.distinct}
        self._undo = []
        self._op = None

    # -- argument identity --------------------------------------------------

    def _key(self, x):
        if isinstance(x, _ATOMS):
            return x
        t = type(x)
        if t is tuple or t is list:
            return tuple(map(self._key, x))
        if t is dict:
            return frozenset((k, self._key(v)) for k, v in x.items())
        if t is self.bp.grading.Poly:
            return (x.alphabet.tag, frozenset(x.terms.items()))
        if t is self.bp.grading.Context:
            return ("Context", x.prime, x.truncation)
        terms = getattr(x, "terms", None)
        if isinstance(terms, dict):
            return (t.__name__, self._key(terms))
        if dataclasses.is_dataclass(x):
            return (t.__name__,) + tuple(
                self._key(getattr(x, f.name)) for f in dataclasses.fields(x)
            )
        return (t.__name__, id(x))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, spec, fn):
        stat = self.stats[spec.name]
        depth = self._depth
        stack = self._stack
        keys = self._keys.get(spec.name)
        name = spec.name
        count = spec.count
        counters = self.counters
        key = self._key

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if keys is not None:
                keys.add(hash(key((args, kwargs)) if kwargs else key(args)))
            if count is not None:
                count(counters, args)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if not depth[name]:
                    stat.total_s += dur
                # The caller's self time excludes this whole wrapper, its
                # bookkeeping included, so tracing cost shows only in
                # trace.overhead_s.
                stack[-1][0] += perf_counter() - entered

        return wrapper

    def install(self):
        modules = list(vars(self.bp).values())
        for spec in self.specs:
            original = getattr(spec.owner, spec.attrs[0])
            wrapped = self._wrap(spec, original)
            if isinstance(spec.owner, type):
                for attr in spec.attrs:
                    self._undo.append((spec.owner, attr, getattr(spec.owner, attr)))
                    setattr(spec.owner, attr, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- op spans --------------------------------------------------------------

    def begin_op(self, label):
        self._stack.append([0.0])
        self._op = (label, perf_counter())

    def end_op(self):
        end = perf_counter()
        frame = self._stack.pop()
        label, start = self._op
        self.roots.append((label, start, end, end - start - frame[0]))
        for name, keys in self._keys.items():
            self.stats[name].distinct += len(keys)
            keys.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """The reported aggregates, each layer's self time summed over its
        traced functions, and the coverage counts, as name -> (value, unit).
        A function with no calls reports a distinct_ratio of 0."""
        out = {}
        for spec in self.specs:
            st = self.stats[spec.name]
            values = {
                "calls": st.calls,
                "self_s": st.self_s,
                "total_s": st.total_s,
                "distinct_ratio": st.distinct / st.calls if st.calls else 0.0,
            }
            for stat in spec.report:
                out[f"{spec.name}.{stat}"] = (values[stat], UNITS[stat])
        for layer in LAYERS:
            own = sum(st.self_s for name, st in self.stats.items()
                      if name.startswith(layer + "."))
            out[f"{layer}.self_s"] = (own, "s")
        for name, value in self.counters.items():
            out[name] = (value, "count")
        return out
