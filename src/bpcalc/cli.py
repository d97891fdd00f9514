"""Command-line surface: verification pipelines, operation evaluation,
group localization, and finite-category checks.

Exit codes: 0 all checks pass, 1 check failure, 2 usage or parse error
(or a pipeline precondition the configuration fails), 3 truncation
exceeded.  A verify target that stops on an arithmetic error is one
failed record ``<target>.crashed`` (under ``verify all`` the others still
run), and ``cat localize`` on a class that fails the fraction axioms reports
the class's axiom records (``class[S].*``) and exits 1.
Reports are deterministic apart from each record's measured
``runtime_ms``: JSON output omits that field under ``--no-timing``, and
text output never shows it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, abloc, catfrac, hopf, opcalc
from .arith import is_prime
from .errors import BPCalcError, ParseError, PreconditionError, TruncationError
from .grading import Context, format_poly, parse_poly
from .hopf import OperationExpr
from .report import Report

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3

ENV_PREFIX = "BPCALC_"

VERIFY_TARGETS = (
    "lemma7.1",
    "lemma7.3",
    "lemma7.5",
    "lemma7.7",
    "thm7.2",
    "lemma7.9",
    "thm7.10",
    "all",
)
# the parts of "all", in report order; thm7.2 runs lemma7.5 and lemma7.7
VERIFY_ALL = ("lemma7.1", "lemma7.3", "thm7.2", "lemma7.9", "thm7.10", "structural")


@dataclass
class Config:
    """Run configuration: prime, truncation, pairing window, output."""

    prime: int = 7
    truncation: int = 4
    degree_bound_q: int | None = None  # defaults to (2p+4) per context
    format: str = "text"
    out: str | None = None
    timing: bool = True

    def __post_init__(self):
        if not is_prime(self.prime) or self.prime == 2:
            raise ValueError(f"prime must be an odd prime, got {self.prime}")
        if self.truncation < 3:
            raise ValueError("truncation must be >= 3 for the pipelines")
        if self.format not in ("text", "json"):
            raise ValueError("format must be text or json")
        if self.degree_bound_q is not None and self.degree_bound_q < 1:
            raise ValueError(
                f"degree bound must be >= 1 (units of q), got {self.degree_bound_q}"
            )

    @property
    def bound_q(self) -> int:
        return (
            self.degree_bound_q
            if self.degree_bound_q is not None
            else 2 * self.prime + 4
        )

    def context(self) -> Context:
        return Context(prime=self.prime, truncation=self.truncation)


def _env_default(name, fallback):
    """The raw string, so argparse applies the option's type: a bad value is usage."""
    return os.environ.get(ENV_PREFIX + name, fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpcalc",
        description="exact-arithmetic workbench: operation calculus on the "
        "Brown-Peterson coefficient ring, category-of-fractions checks, "
        "abelian group localization",
    )
    parser.add_argument("--version", action="version", version=f"bpcalc {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--prime",
        type=int,
        default=_env_default("PRIME", 7),
        help="odd prime (default 7)",
    )
    common.add_argument(
        "--truncation",
        type=int,
        default=_env_default("TRUNCATION", 4),
        help="generator count N (default 4)",
    )
    common.add_argument(
        "--degree-bound",
        type=int,
        default=_env_default("DEGREE_BOUND", None),
        help="pairing window in units of q (default 2p+4)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=_env_default("FORMAT", "text"),
    )
    common.add_argument("--out", default=_env_default("OUT", None))
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="omit runtime fields for byte-identical output",
    )
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification pipeline"
    )
    p_verify.add_argument("target", choices=VERIFY_TARGETS)

    p_eval = sub.add_parser(
        "eval",
        parents=[common],
        help="apply an operation to a polynomial",
        epilog='a literal that starts with a minus sign reads as an option '
        'unless "--" comes before the literals: bpcalc eval -- "R[1]" -3*v1',
    )
    p_eval.add_argument("operation", help="e.g. R[1], R[p]R[1], R[1]R[p] - R[p]R[1]")
    p_eval.add_argument("poly", help="v-polynomial literal, e.g. v2 or -2*v2^4")

    p_loc = sub.add_parser(
        "localize-group", parents=[common], help="localize a finitely "
        "generated abelian group"
    )
    p_loc.add_argument("group", help='group literal, e.g. "Z/12" or "Z^2 + Z/5"')
    p_loc.add_argument(
        "--invert",
        required=True,
        help='primes to invert: "2", "2,3", "all", or "not 2"',
    )
    p_loc.add_argument(
        "--oracle",
        action="store_true",
        help="also run the literal fraction construction (finite groups only)",
    )

    p_cat = sub.add_parser(
        "cat", parents=[common], help="finite-category checks"
    )
    p_cat.add_argument("action", choices=("localize", "check"))
    p_cat.add_argument("file", help="category description file")
    p_cat.add_argument("--marked-class", default="S", help="class name (default S)")

    return parser


# ---------------------------------------------------------------------------
# Operation expression literals
# ---------------------------------------------------------------------------

def _parse_index_entry(tok: str, p: int) -> int:
    tok = tok.strip()
    m = re.fullmatch(r"p\^(\d+)", tok)
    if m:
        return p ** int(m.group(1))
    if tok == "p":
        return p
    if re.fullmatch(r"\d+", tok):
        return int(tok)
    raise ParseError(f"bad index entry {tok!r} (use integers, p, or p^k)")


def parse_operation(text: str, ctx: Context) -> OperationExpr:
    """Sums of [rational *] R[..] words, juxtaposition = composition.
    R[p] and R[p^k] expand with the configured prime."""
    s = text.strip()
    if not s:
        raise ParseError("empty operation literal")
    expr = OperationExpr.zero(ctx)
    sign = 1
    pos = 0
    n = len(s)
    while pos < n:
        while pos < n and s[pos] in " \t":
            pos += 1
        if pos >= n:
            break
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
            continue
        # one term: optional coefficient then one or more R[...] factors
        m = re.match(r"\s*(\d+(?:/\d+)?)\s*\*?", s[pos:])
        coeff = Fraction(1)
        if m and m.group(1):
            num, _, den = m.group(1).partition("/")
            if den and int(den) == 0:
                raise ParseError(f"bad coefficient {m.group(1)!r} in {text!r}")
            coeff = Fraction(int(num), int(den or 1))
            pos += m.end()
        indices = []
        while True:
            m = re.match(r"\s*R\[([^\]]*)\]", s[pos:])
            if not m:
                break
            entries = [e for e in m.group(1).split(",")]
            idx = tuple(_parse_index_entry(e, ctx.prime) for e in entries if e.strip())
            indices.append(idx)
            pos += m.end()
        if not indices:
            raise ParseError(f"expected R[..] factor at {s[pos:pos+12]!r}")
        expr = expr + OperationExpr.word(ctx, *indices, scalar=sign * coeff)
        sign = 1
    return expr


def parse_inverted(spec: str) -> abloc.InvertedSet:
    spec = spec.strip().lower()
    if spec == "all":
        return abloc.InvertedSet(rationalize=True)
    complement = False
    if spec.startswith("not "):
        complement = True
        spec = spec[4:]
    primes = set()
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if not re.fullmatch(r"[0-9]+", tok) or not is_prime(int(tok)):
            raise ParseError(f"bad --invert entry {tok!r} (use primes, all, or not p)")
        primes.add(int(tok))
    return abloc.InvertedSet(frozenset(primes), complement=complement)


# ---------------------------------------------------------------------------
# Verify targets
# ---------------------------------------------------------------------------


def _run_pipeline(name: str, build, config: dict, into: Report | None = None) -> Report:
    """build()'s report, or with ``into`` given, ``into`` with build()'s
    records appended under the prefix name.  A pipeline that stops on an
    arithmetic error (ValueError, ArithmeticError, or a BPCalcError that
    is neither truncation nor usage) is one failed record
    ``<name>.crashed`` instead; truncation and usage errors propagate
    (exit 3 or 2)."""
    report = into if into is not None else Report(f"the {name} pipeline", config)
    try:
        part = build()
    except (TruncationError, ParseError, PreconditionError):
        raise
    except (ValueError, ArithmeticError, BPCalcError) as exc:
        report.check(
            id=f"{name}.crashed",
            anchor=f"the {name} pipeline runs to completion",
            status=False,
            witness=f"{type(exc).__name__}: {exc}",
        )
        return report
    if into is None:
        return part
    report.extend(part, prefix=name)
    return report


def run_verify(target: str, config: Config) -> Report:
    ctx = config.context()
    bound = config.bound_q
    summary = {"prime": ctx.prime, "truncation": ctx.truncation, "window_q": bound}

    def with_complex(report: Report) -> Report:
        d0, d1, d2 = opcalc.d_matrices(ctx)
        good = opcalc.check_complex(ctx, [d0, d1, d2], bound)
        report.extend(good)
        printed = opcalc.check_complex(
            ctx, [d0, opcalc.d1_misprint(ctx), d2], bound
        )
        report.check(
            id="misprint-d1-fails",
            anchor="the misprinted variant of the second matrix fails both "
            "composites (documenting the misprint)",
            status=not printed.passed,
            computed="; ".join(
                f"{r.id}: {r.witness}" for r in printed.records
            ),
        )
        return report

    builders = {
        "lemma7.1": lambda: with_complex(hopf.verify_lemma_7_1(ctx, bound)),
        "lemma7.3": lambda: opcalc.verify_lemma_7_3(ctx),
        "lemma7.5": lambda: opcalc.lemma75_check(ctx)[1],
        "lemma7.7": lambda: opcalc.lemma77_check(ctx)[1],
        "thm7.2": lambda: opcalc.gamma1_pipeline(ctx),
        "lemma7.9": lambda: opcalc.verify_lemma_7_9(ctx),
        "thm7.10": lambda: opcalc.betap_pipeline(ctx),
        "structural": lambda: hopf.verify_structural(ctx),
    }
    if target == "all":
        merged = Report("all verification pipelines", config=summary)
        for name in VERIFY_ALL:
            # a crash is one failed record; the other targets still run
            _run_pipeline(name, builders[name], summary, into=merged)
        return merged
    if target not in builders:
        raise ValueError(f"unknown verify target {target}")
    return _run_pipeline(target, builders[target], summary)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _emit(report: Report, config: Config) -> int:
    text = (
        report.to_json(timing=config.timing)
        if config.format == "json"
        else report.to_text()
    )
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _config_from(args) -> Config:
    return Config(
        prime=args.prime,
        truncation=args.truncation,
        degree_bound_q=args.degree_bound,
        format=args.format,
        out=args.out,
        timing=not args.no_timing,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        config = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "verify":
            return _emit(run_verify(args.target, config), config)

        if args.command == "eval":
            ctx = config.context()
            op = parse_operation(args.operation, ctx)
            poly = parse_poly(args.poly, ctx.V)
            result = op.act(poly)
            print(format_poly(result))
            return EXIT_PASS

        if args.command == "localize-group":
            group = abloc.parse_group(args.group)
            inverted = parse_inverted(args.invert)
            localized = abloc.localize(group, inverted)
            # the oracle runs first: a group past its bound exits 2 unprinted
            got = None
            if args.oracle and not group.rank:
                got = abloc.fraction_oracle(group.torsion, inverted)
            print(localized)
            if args.oracle:
                if group.rank:
                    print("oracle: skipped (free part present)", file=sys.stderr)
                else:
                    agree = got == localized.group()
                    print(f"oracle: {got} ({'agrees' if agree else 'DISAGREES'})")
                    if not agree:
                        return EXIT_CHECK_FAILURE
            return EXIT_PASS

        if args.command == "cat":
            with open(args.file) as fh:
                text = fh.read()
            C, classes, monads = catfrac.parse_category_file(text)
            if args.action == "check":
                report = Report(f"category checks for {args.file}")
                for name, S in sorted(classes.items()):
                    report.extend(
                        catfrac.check_fraction_axioms(C, S), prefix=f"class[{name}]"
                    )
                for name, monad in sorted(monads.items()):
                    if monad.eta:
                        report.extend(
                            catfrac.check_monad(C, monad), prefix=f"monad[{name}]"
                        )
                return _emit(report, config)
            # localize
            name = args.marked_class
            if name not in classes:
                print(f"error: no class {name!r} in {args.file}", file=sys.stderr)
                return EXIT_USAGE
            report = Report(
                f"localization of {args.file} at class {name}",
                config={"objects": " ".join(C.objects)},
            )
            try:
                L, Q, _ = catfrac.localize(C, classes[name])
            except catfrac.FractionAxiomsError as exc:
                # no localization to compare: the axiom records are the report
                report.extend(exc.report, prefix=f"class[{name}]")
                return _emit(report, config)
            for x in C.objects:
                for y in C.objects:
                    hom = L.hom(x, y)
                    oracle = catfrac.zigzag_oracle(C, classes[name], x, y)
                    report.check(
                        id=f"hom[{x},{y}]",
                        anchor="localized hom-set against the zig-zag oracle",
                        status=len(hom) == len(oracle),
                        expected=f"{len(oracle)} classes (oracle)",
                        computed=f"{len(hom)} classes: {', '.join(hom)}",
                    )
            return _emit(report, config)
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (ParseError, PreconditionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BPCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    parser.print_help()
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
