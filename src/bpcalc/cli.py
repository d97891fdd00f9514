"""Command-line surface: verification pipelines, operation evaluation,
group localization, and finite-category checks.

The verify targets, in report order, are the keys of one table,
``VERIFY_PIPELINES``; the argparse choices and ``all``'s parts come from it.

Exit codes: 0 all checks pass, 1 check failure, 2 usage or parse error
(or a pipeline precondition the configuration fails, or a non-integral
``eval`` value), 3 truncation exceeded, 4 internal error: any other
exception (a bug, or MemoryError or RecursionError on a run too large)
prints one ``internal error: <type>: <message>`` line and its traceback on
stderr, and nothing on stdout; KeyboardInterrupt is not caught.  A verify
target that stops on an arithmetic error (ValueError, ArithmeticError or a
BPCalcError) is one failed record ``<target>.crashed``, exit 1 (under
``verify all`` the others still run); ``cat localize`` on a class that
fails the fraction axioms reports its axiom records (``class[S].*``) and
exits 1, and ``cat check`` on a file with no class and no functor exits 2,
as does an input or ``--out`` path that cannot be read or written, or a
``cat --out`` that names the input file (``--out`` is checked before any
work, and no file is left behind on exit 2 or 3).
Reports are deterministic apart from each record's measured
``runtime_ms``: JSON output omits that field under ``--no-timing``, and
text output never shows it.

Options come from argv alone, each command taking only those it reads:
``verify`` --prime --format --out --no-timing, ``eval`` --prime,
``localize-group`` --invert --oracle, ``cat`` --format --out --no-timing
--marked-class.  Any other flag is a usage error; an option not given
keeps ``Config``'s default.  The truncation N = 4 and the pairing window
(2p+4)q are fixed.  Each invocation builds one parser: the named command's
own, or, when the first argument names no command, the parser of every
command, for the top-level usage.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shutil
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from . import __version__, abloc, catfrac, hopf, opcalc
from .arith import is_prime
from .errors import BPCalcError, ParseError, PreconditionError, TruncationError
from .grading import Context, format_poly, parse_poly, split_signed_terms
from .hopf import OperationExpr
from .report import Report

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3
EXIT_INTERNAL = 4

# command -> its line in the top-level help, in the order listed
COMMANDS = {
    "verify": "run a verification pipeline",
    "eval": "apply an operation to a polynomial",
    "localize-group": "localize a finitely generated abelian group",
    "cat": "finite-category checks",
}


@dataclass
class Config:
    """Run configuration: prime and output."""

    prime: int = 7
    format: str = "text"
    out: str | None = None
    timing: bool = True

    def __post_init__(self):
        Context.check_prime(self.prime)
        if self.format not in ("text", "json"):
            raise ValueError("format must be text or json")

    def context(self) -> Context:
        return Context(prime=self.prime)


class _CommandParser(argparse.ArgumentParser):
    """A subparser: a flag its command does not read is its own usage error."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return parsed, extra


def build_parser(command=None) -> argparse.ArgumentParser:
    """``command``'s own parser, for the arguments after the command word, or
    when ``command`` names none, the parser of every command, for all of argv.
    A ``Config`` option not given is left out of the namespace (SUPPRESS).
    The terminal width that each help formatter would look up for itself
    (``add_argument`` makes one per argument) is looked up once, here."""
    columns = shutil.get_terminal_size().columns
    formatter = functools.partial(argparse.HelpFormatter, width=columns - 2)
    if command in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"bpcalc {command}", formatter_class=formatter)
        parsers = {command: parser}
    else:
        parser = argparse.ArgumentParser(
            prog="bpcalc",
            formatter_class=formatter,
            description="exact-arithmetic workbench: operation calculus on the "
            "Brown-Peterson coefficient ring, category-of-fractions checks, "
            "abelian group localization",
        )
        parser.add_argument("--version", action="version", version=f"bpcalc {__version__}")
        sub = parser.add_subparsers(dest="command", parser_class=_CommandParser)
        parsers = {
            c: sub.add_parser(c, help=line, formatter_class=formatter)
            for c, line in COMMANDS.items()
        }

    for name, p in parsers.items():
        add_option = functools.partial(p.add_argument, default=argparse.SUPPRESS)
        if name in ("verify", "eval"):  # the ring
            add_option("--prime", type=int, help=f"odd prime (default {Config.prime})")
        if name in ("verify", "cat"):  # the output
            add_option("--format", choices=("text", "json"))
            add_option("--out")
            add_option(
                "--no-timing",
                dest="timing",
                action="store_false",
                help="omit runtime fields for byte-identical output",
            )
        if name == "verify":
            p.add_argument("target", choices=VERIFY_TARGETS)
        elif name == "eval":
            p.epilog = (
                'a literal that starts with a minus sign reads as an option '
                'unless "--" comes before the literals: bpcalc eval -- "R[1]" -3*v1'
            )
            p.add_argument("operation", help="e.g. R[1], R[p]R[1], R[1]R[p] - R[p]R[1]")
            p.add_argument("poly", help="v-polynomial literal, e.g. v2 or -2*v2^4")
        elif name == "localize-group":
            p.add_argument("group", help='group literal, e.g. "Z/12" or "Z^2 + Z/5"')
            p.add_argument(
                "--invert",
                required=True,
                help='primes to invert: "2", "2,3", "all", or "not 2"',
            )
            p.add_argument(
                "--oracle",
                action="store_true",
                help="also run the literal fraction construction (finite groups only)",
            )
        else:
            p.add_argument("action", choices=("localize", "check"))
            p.add_argument("file", help="category description file")
            p.add_argument("--marked-class", default="S", help="class name (default S)")
    return parser


# ---------------------------------------------------------------------------
# Operation expression literals
# ---------------------------------------------------------------------------

# the literal grammar's patterns, compiled once
_INDEX_POWER_RE = re.compile(r"p\^(\d+)")
_INDEX_INT_RE = re.compile(r"\d+")
_OP_COEFF_RE = re.compile(r"(\d+(?:/\d+)?)\s*\*?")
_OP_LETTER_RE = re.compile(r"\s*R\[([^\]]*)\]")


def _parse_index_entry(tok: str, p: int) -> int:
    tok = tok.strip()
    m = _INDEX_POWER_RE.fullmatch(tok)
    if m:
        return p ** int(m.group(1))
    if tok == "p":
        return p
    if _INDEX_INT_RE.fullmatch(tok):
        return int(tok)
    raise ParseError(f"bad index entry {tok!r} (use integers, p, or p^k)")


def parse_operation(text: str, ctx: Context) -> OperationExpr:
    """Sums of [rational *] R[..] words, juxtaposition = composition.
    R[p] and R[p^k] expand with the configured prime.  A scalar stays an
    int unless it is written ``a/b``."""
    if not text.strip():
        raise ParseError("empty operation literal")
    expr = OperationExpr.zero(ctx)
    for sign, chunk in split_signed_terms(text):
        # one term: optional coefficient then one or more R[...] factors
        m = _OP_COEFF_RE.match(chunk)
        coeff, pos = 1, 0
        if m:
            num, _, den = m.group(1).partition("/")
            if den and int(den) == 0:
                raise ParseError(f"bad coefficient {m.group(1)!r} in {text!r}")
            coeff = Fraction(int(num), int(den)) if den else int(num)
            pos = m.end()
        indices = []
        while True:
            m = _OP_LETTER_RE.match(chunk, pos)
            if not m:
                break
            # R[] is R[0]; an empty entry in a non-empty list is an error
            body = m.group(1)
            entries = body.split(",") if body.strip() else ()
            indices.append(tuple(_parse_index_entry(e, ctx.prime) for e in entries))
            pos = m.end()
        if not indices or chunk[pos:].strip():
            raise ParseError(f"expected R[..] factor at {chunk[pos:pos+12]!r}")
        expr = expr + OperationExpr.word(ctx, *indices, scalar=sign * coeff)
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


def _lemma_7_1(ctx: Context) -> Report:
    """Lemma 7.1's relations, then the complex d0, d1, d2 over the same
    window, and the misprinted d1, which must fail both composites."""
    report = hopf.verify_lemma_7_1(ctx)
    d0, d1, d2 = opcalc.d_matrices(ctx)
    report.extend(opcalc.check_complex(ctx, [d0, d1, d2]))
    printed = opcalc.check_complex(ctx, [d0, opcalc.d1_misprint(ctx), d2])
    report.check(
        id="misprint-d1-fails",
        anchor="the misprinted variant of the second matrix fails both "
        "composites (documenting the misprint)",
        status=not printed.passed,
        computed="; ".join(f"{r.id}: {r.witness}" for r in printed.records),
    )
    return report


# target -> (builder(ctx), part of "all"); the two stages thm7.2
# runs first are targets outside "all".  Builders look pipelines up per call.
VERIFY_PIPELINES = {
    "lemma7.1": (_lemma_7_1, True),
    "lemma7.3": (lambda ctx: opcalc.verify_lemma_7_3(ctx), True),
    "lemma7.5": (lambda ctx: opcalc.lemma75_check(ctx)[1], False),
    "lemma7.7": (lambda ctx: opcalc.lemma77_check(ctx)[1], False),
    "thm7.2": (lambda ctx: opcalc.gamma1_pipeline(ctx), True),
    "lemma7.9": (lambda ctx: opcalc.verify_lemma_7_9(ctx), True),
    "thm7.10": (lambda ctx: opcalc.betap_pipeline(ctx), True),
    "structural": (lambda ctx: hopf.verify_structural(ctx), True),
}
VERIFY_ALL = tuple(name for name, (_, in_all) in VERIFY_PIPELINES.items() if in_all)
VERIFY_TARGETS = (*VERIFY_PIPELINES, "all")


def _run_pipeline(name: str, ctx, config: dict, into=None) -> Report:
    """The report of target name's builder, or with ``into`` given, ``into``
    with its records appended under the prefix name.  A pipeline that stops
    on an arithmetic error (ValueError, ArithmeticError, or a BPCalcError
    that is neither truncation nor usage) is one failed record
    ``<name>.crashed`` instead; truncation and usage errors propagate
    (exit 3 or 2)."""
    report = into if into is not None else Report(f"the {name} pipeline", config)
    build, _ = VERIFY_PIPELINES[name]
    try:
        part = build(ctx)
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
    window_q = hopf.pairing_window_q(ctx.prime)
    summary = {"prime": ctx.prime, "truncation": ctx.truncation, "window_q": window_q}
    if target == "all":
        merged = Report("all verification pipelines", config=summary)
        for name in VERIFY_ALL:
            # a crash is one failed record; the other targets still run
            _run_pipeline(name, ctx, summary, into=merged)
        return merged
    if target not in VERIFY_PIPELINES:
        raise ValueError(f"unknown verify target {target}")
    return _run_pipeline(target, ctx, summary)


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
    """The options given on the command line; the others keep Config's defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(Config) if f.name in args}
    return Config(**given)


def main(argv=None) -> int:
    """The exit code of the command in argv (the module docstring's table).
    An exception that no code maps is an internal error, exit 4, never a
    failed check."""
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        command = argv[0] if argv and argv[0] in COMMANDS else None
        parser = build_parser(command)
        args = parser.parse_args(argv[1:] if command else argv)
        try:
            config = _config_from(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

        if config.out:  # an unwritable path fails before any work, leaving no file
            existed = os.path.exists(config.out)
            if existed and command == "cat" and os.path.samefile(config.out, args.file):
                raise ParseError(f"--out {config.out} is the input file {args.file}")
            open(config.out, "a").close()
            if not existed:
                os.remove(config.out)
        if command == "verify":
            return _emit(run_verify(args.target, config), config)

        if command == "eval":
            ctx = config.context()
            op = parse_operation(args.operation, ctx)
            try:
                print(format_poly(op.act(parse_poly(args.poly, ctx.V))))
            except ValueError as exc:  # a value with a p left in a denominator
                raise ParseError(exc) from None
            return EXIT_PASS

        if command == "localize-group":
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

        if command == "cat":
            try:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{args.file}: not UTF-8 text ({exc.reason})") from None
            C, classes, monads = catfrac.parse_category_file(text)
            if args.action == "check":
                if not classes and not monads:
                    raise ParseError(f"{args.file}: no class or functor to check")
                report = Report(f"category checks for {args.file}")
                for name, S in sorted(classes.items()):
                    report.extend(
                        catfrac.check_fraction_axioms(C, S), prefix=f"class[{name}]"
                    )
                for name, monad in sorted(monads.items()):
                    report.extend(catfrac.check_monad(C, monad), prefix=f"monad[{name}]")
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
        parser.print_help()  # no command word
        return EXIT_USAGE
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (ParseError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BPCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except Exception as exc:  # a bug, or a run too large for memory or stack
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # Python's own traceback printer: the normal path imports nothing for it
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
