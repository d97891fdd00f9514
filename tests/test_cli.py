import argparse
import dataclasses
import inspect
import json
import re
import sys

import pytest

from bpcalc import cli, hopf, opcalc
from bpcalc import report as report_module
from bpcalc.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_PASS,
    EXIT_TRUNCATION,
    EXIT_USAGE,
    main,
    parse_inverted,
    parse_operation,
)
from bpcalc.errors import (
    ExponentOverflowError,
    NotDivisibleError,
    ParseError,
    PreconditionError,
)
from bpcalc.grading import Context
from bpcalc.report import Report

INTERVAL_CAT = """
objects: x0 x1
mor u : x0 -> x1
class S = { u }
functor E = { x0: x1, x1: x1 | u: id_x1 }
nat eta E = { x0: u, x1: id_x1 }
"""


def test_eval_lemma_value(capsys):
    assert main(["eval", "R[1]", "v2", "--prime", "7"]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == "-8*v1^7"


def test_eval_composition_words(capsys):
    code = main(["eval", "R[1]R[p] - R[p]R[1]", "v2", "--prime", "5"])
    assert code == EXIT_PASS
    # the commutator acts like R[0,1] on v2, giving p
    assert capsys.readouterr().out.strip() == "5"


def test_parse_operation_literals():
    ctx = Context(prime=7)
    op = parse_operation("R[p^2]", ctx)
    assert op.parts == ((1, ((49,),)),)
    op = parse_operation("2*R[1]R[0,1]", ctx)
    assert op.parts == ((2, ((1,), (0, 1))),)
    with pytest.raises(ParseError):
        parse_operation("S[1]", ctx)


# one row per ParseError branch of parse_operation and _parse_index_entry
OPERATION_PARSE_ERRORS = [
    ("", "empty operation literal"),
    ("  ", "empty operation literal"),
    ("2/0*R[1]", "bad coefficient '2/0' in '2/0*R[1]'"),
    ("S[1]", "expected R[..] factor at 'S[1]'"),
    ("R[1]x", "expected R[..] factor at 'x'"),
    ("R[q]", "bad index entry 'q' (use integers, p, or p^k)"),
    ("R[1,p^]", "bad index entry 'p^' (use integers, p, or p^k)"),
    # an empty entry in a non-empty list is not dropped: R[,1] is neither
    # R[1] nor R[0,1]
    ("R[,1]", "bad index entry '' (use integers, p, or p^k)"),
    ("R[1,,2]", "bad index entry '' (use integers, p, or p^k)"),
    ("R[1,]", "bad index entry '' (use integers, p, or p^k)"),
    ("R[ ,1]", "bad index entry '' (use integers, p, or p^k)"),
    ("R[p,]R[1]", "bad index entry '' (use integers, p, or p^k)"),
]


@pytest.mark.parametrize("literal, message", OPERATION_PARSE_ERRORS)
def test_each_operation_parse_error_is_one_usage_line(capsys, literal, message):
    assert main(["eval", "--prime", "5", "--", literal, "v1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("literal", ["R[]", "R[ ]", "R[0]", "R[0,0]"])
def test_an_empty_index_is_r0(capsys, literal):
    ctx = Context(prime=5)
    assert parse_operation(literal, ctx).parts == ((1, ((),)),)
    assert main(["eval", "--prime", "5", "--", literal, "v2"]) == EXIT_PASS
    assert capsys.readouterr().out == "v2\n"


RELATION_LITERALS = [
    "R[1]R[p] - R[p]R[1] - R[0,1]",
    "R[1]R[0,1] - R[0,1]R[1]",
    "R[p]R[0,1] - R[0,1]R[p]",
    "R[p]R[1]R[1] - 2*R[1]R[p]R[1] + R[1]R[1]R[p]",
    "R[p]R[p]R[1] - 2*R[p]R[1]R[p] + R[1]R[p]R[p]",
]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("relation", RELATION_LITERALS)
def test_eval_of_a_relation_changes_nothing_back_to_the_v_basis(monkeypatch, capsys, p, relation):
    # a relation's words cancel on every m-monomial, so eval prints 0
    # without reading one scaled image m^a -> v on its fresh context
    made = []
    context = cli.Config.context
    monkeypatch.setattr(cli.Config, "context", lambda self: made.append(context(self)) or made[-1])
    poly = "v1^3*v2^2 - 7*v3 + 2/3*v1^12*v2"
    assert main(["eval", "--prime", str(p), "--", relation, poly]) == EXIT_PASS
    assert capsys.readouterr().out == "0\n"
    assert len(made) == 1 and made[0].memo["_m_to_v_scaled"] == {}


@pytest.mark.parametrize("columns", ["80", "200"])
def test_help_wraps_at_the_terminal_width(monkeypatch, capsys, columns):
    # the parser looks the width up once when it is built; help still
    # wraps at COLUMNS - 2, as argparse's own lookup would
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert max(map(len, lines)) <= int(columns) - 2
    description = [line for line in lines if line.startswith("exact-arithmetic")]
    assert description[0].endswith("localization") == (columns == "200")


def test_localize_group_cli(capsys):
    assert main(["localize-group", "Z/12", "--invert", "2"]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == "Z/3"
    assert main(["localize-group", "Z/12", "--invert", "not 2"]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == "Z/4"
    assert main(["localize-group", "Z + Z/5", "--invert", "all"]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == "Q"
    assert (
        main(["localize-group", "Z/12", "--invert", "3", "--oracle"]) == EXIT_PASS
    )
    out = capsys.readouterr().out
    assert "agrees" in out


def test_parse_inverted_forms():
    assert parse_inverted("2,3").primes == frozenset({2, 3})
    assert parse_inverted("not 2").complement
    assert parse_inverted("all").rationalize


def test_verify_smoke_json(capsys):
    code = main(
        ["verify", "lemma7.5", "--prime", "7", "--format", "json", "--no-timing"]
    )
    assert code == EXIT_PASS
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"
    assert data["config"]["prime"] == 7
    assert all("anchor" in c and c["anchor"] for c in data["checks"])


def test_verify_deterministic_bytes(capsys):
    args = ["verify", "lemma7.3", "--prime", "5", "--format", "json", "--no-timing"]
    assert main(args) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(args) == EXIT_PASS
    second = capsys.readouterr().out
    assert first == second


def test_verify_measures_every_record(monkeypatch, capsys):
    # a clock that advances 1000 s per reading: a record the report timed
    # shows at least one step, an unmeasured or averaged one shows less
    ticks = iter(range(0, 10**9, 1000))
    monkeypatch.setattr(report_module, "perf_counter", lambda: next(ticks))
    args = ["verify", "lemma7.3", "--prime", "5", "--format", "json"]
    assert main(args) == EXIT_PASS
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1]["id"] == "lemma7.3.recomputed-table"
    assert all(c["runtime_ms"] >= 1_000_000 for c in checks), [
        (c["id"], c["runtime_ms"]) for c in checks
    ]
    assert main(args + ["--no-timing"]) == EXIT_PASS
    assert "runtime_ms" not in capsys.readouterr().out


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "thm7.10",
            "--prime",
            "5",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_PASS
    data = json.loads(out.read_text())
    assert data["status"] == "pass"
    assert data["schema"].startswith("bpcalc-report/")


def test_cat_subcommands(tmp_path, capsys):
    path = tmp_path / "interval.cat"
    path.write_text(INTERVAL_CAT)
    assert main(["cat", "check", str(path)]) == EXIT_PASS
    capsys.readouterr()
    assert main(["cat", "localize", str(path)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "hom[x1,x0]" in out
    assert main(["cat", "localize", str(path), "--marked-class", "T"]) == EXIT_USAGE


def test_exit_codes():
    assert main(["eval", "R[1]", "v9", "--prime", "7"]) == EXIT_TRUNCATION
    assert main(["eval", "Q[1]", "v1"]) == EXIT_USAGE
    assert main(["localize-group", "Z/x", "--invert", "2"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])  # argparse rejects unknown choices


def test_eval_deep_power(capsys):
    # R[1](v1^n) = n p v1^(n-1); the Cartan table of m1^2000 is 2000 steps deep
    assert main(["eval", "--prime", "5", "--", "R[1]", "v1^2000"]) == EXIT_PASS
    assert capsys.readouterr().out == "10000*v1^1999\n"


def test_eval_power_at_and_past_the_key_field(capsys):
    # deg(v1^n)/q = n at p = 5: 20000 fits the 16-bit field, 70000 does not
    assert main(["eval", "--prime", "5", "--", "R[1]", "v1^20000"]) == EXIT_PASS
    assert capsys.readouterr().out == "100000*v1^19999\n"
    assert main(["eval", "--prime", "5", "--", "R[1]", "v1^70000"]) == EXIT_TRUNCATION
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "error:" in lines[0]


BAD_INPUT_ARGVS = [
    ["verify", "lemma7.1", "--prime", "9"],
    ["eval", "R[1]", "v1", "--prime", "9"],
    ["eval", "R[1]", "0.5*v1", "--prime", "5"],
    ["localize-group", "Z/0", "--invert", "2"],
    ["localize-group", "Z/12", "--invert", "x"],
    ["localize-group", "Z/12", "--invert", "4"],
    ["verify", "thm7.2", "--prime", "3"],
    ["verify", "thm7.10", "--prime", "3"],
    ["verify", "all", "--prime", "3"],
    ["localize-group", "Z/99999999999", "--invert", "3", "--oracle"],
    ["cat", "check", "no-such-file.cat"],
    ["cat", "localize", "no-such-file.cat"],
    ["cat", "check", "functor-without-unit.cat"],
    ["cat", "check", "nothing-to-check.cat"],
    # paths that exist but cannot be read as text or written to
    ["cat", "check", "."],
    ["cat", "check", "latin-1.cat"],
    ["verify", "lemma7.5", "--prime", "5", "--out", "."],
    # a word or a polynomial that does not parse
    ["eval", "R[x]", "v1", "--prime", "5"],
    ["eval", "R[1]", "v1^", "--prime", "5"],
]

# category files the bad-input argvs name, written to the working directory
BAD_CAT_FILES = {
    "functor-without-unit.cat": INTERVAL_CAT.replace("nat eta E", "# nat eta E").encode(),
    "nothing-to-check.cat": b"objects: x0 x1\nmor u : x0 -> x1\n",
    "latin-1.cat": "objects: x0\n# caf\u00e9\n".encode("latin-1"),
}


@pytest.mark.parametrize("argv", BAD_INPUT_ARGVS)
def test_bad_input_exits_usage_with_one_line_error(argv, capsys, tmp_path, monkeypatch):
    for name, data in BAD_CAT_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if argv[-1] == "latin-1.cat":
        assert lines[0].startswith("error: latin-1.cat: not UTF-8 text")


@pytest.mark.parametrize("prime", [9, 2, 1, -7, 7, 5, 3])
def test_config_and_context_share_one_ring_rule(prime):
    # Config reads Context's prime rule: the same primes pass or fail, with
    # the same message
    def outcome(make):
        try:
            make(prime=prime)
        except ValueError as exc:
            return str(exc)
        return None

    assert outcome(cli.Config) == outcome(Context)
    assert (outcome(Context) is None) == (prime in (7, 5, 3))


# each flag a command does not read, after an argv that parses without it
DROPPED_FLAG_ARGVS = [
    *(
        ["eval", "R[1]", "v1", *flag]
        for flag in (["--degree-bound", "3"], ["--format", "json"], ["--out", "x"],
                     ["--no-timing"])
    ),
    *(
        ["localize-group", "Z/12", "--invert", "2", *flag]
        for flag in (["--prime", "5"], ["--truncation", "4"], ["--degree-bound", "3"],
                     ["--format", "json"], ["--out", "x"], ["--no-timing"])
    ),
    *(
        ["cat", "check", "x.cat", *flag]
        for flag in (["--prime", "5"], ["--truncation", "4"], ["--degree-bound", "3"])
    ),
    ["verify", "lemma7.1", "--prime", "5", "--invert", "2"],
    # the pairing window (2p+4)q and the truncation N = 4 are fixed: verify
    # and eval take neither as an option
    ["verify", "lemma7.1", "--degree-bound", "0", "--prime", "5"],
    ["verify", "lemma7.1", "--degree-bound", "-2", "--prime", "5"],
    ["verify", "lemma7.3", "--truncation", "2"],
    ["eval", "--truncation", "2", "--", "R[1]", "v1"],
]


@pytest.mark.parametrize("argv", DROPPED_FLAG_ARGVS)
def test_flag_a_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --" in captured.err
    # the command's own usage line and error, not the top-level parser's
    assert captured.err.startswith(f"usage: bpcalc {argv[0]} [-h]")
    assert f"\nbpcalc {argv[0]}: error: unrecognized arguments: --" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--prime", "7"],
        ["cat", "check", "interval.cat"],
        ["cat", "localize", "interval.cat"],
    ],
)
def test_out_path_is_checked_before_any_work(monkeypatch, capsys, tmp_path, argv):
    def no_work(*args):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "run_verify", no_work)
    monkeypatch.setattr(cli.catfrac, "parse_category_file", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "interval.cat").write_text(INTERVAL_CAT)
    for out in (".", "no-such-dir/report.txt"):
        assert main(argv + ["--out", out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: [Errno "), out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["interval.cat"]


@pytest.mark.parametrize("action", ["check", "localize"])
def test_cat_out_must_not_name_the_input_file(monkeypatch, capsys, tmp_path, action):
    def no_work(*args):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli.catfrac, "parse_category_file", no_work)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "interval.cat"
    path.write_text(INTERVAL_CAT)
    (tmp_path / "link.cat").symlink_to(path)
    for out in ("interval.cat", "./interval.cat", str(path), "link.cat"):
        assert main(["cat", action, "interval.cat", "--out", out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --out "), out
        assert "is the input file interval.cat" in lines[0]
        assert path.read_text() == INTERVAL_CAT


@pytest.mark.parametrize(
    "argv, patch, code",
    [
        (["verify", "all", "--prime", "3"], None, EXIT_USAGE),
        (
            ["verify", "lemma7.1", "--prime", "5"],
            ExponentOverflowError("past the key field"),
            EXIT_TRUNCATION,
        ),
        (["cat", "localize", "interval.cat", "--marked-class", "T"], None, EXIT_USAGE),
    ],
)
def test_exit_2_or_3_leaves_no_out_file(monkeypatch, tmp_path, argv, patch, code):
    def crash(*args):
        raise patch

    if patch is not None:
        monkeypatch.setattr(hopf, "verify_lemma_7_1", crash)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "interval.cat").write_text(INTERVAL_CAT)
    (tmp_path / "kept.txt").write_text("kept\n")
    assert main(argv + ["--out", "report.txt"]) == code
    assert main(argv + ["--out", "kept.txt"]) == code
    assert not (tmp_path / "report.txt").exists()
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


@pytest.mark.parametrize(
    "target", ["lemma7.1", "lemma7.3", "lemma7.5", "lemma7.7", "lemma7.9", "structural"]
)
def test_verify_targets_pass_at_p3(capsys, target):
    # thm7.2 and thm7.10 need p >= 5, so verify all --prime 3 exits 2 (above)
    assert main(["verify", target, "--prime", "3", "--no-timing"]) == EXIT_PASS
    assert "status: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("p", ["5", "7"])
def test_verify_structural_is_the_structural_part_of_all(capsys, p):
    argv = ["--prime", p, "--format", "json", "--no-timing"]
    assert main(["verify", "structural", *argv]) == EXIT_PASS
    alone = json.loads(capsys.readouterr().out)["checks"]
    assert main(["verify", "all", *argv]) == EXIT_PASS
    merged = json.loads(capsys.readouterr().out)["checks"]
    prefix = "structural."
    part = [
        {**c, "id": c["id"][len(prefix):]} for c in merged if c["id"].startswith(prefix)
    ]
    assert alone and alone == part


def test_environment_changes_no_run(monkeypatch, capsys, tmp_path):
    argv = ["verify", "lemma7.5", "--prime", "5", "--no-timing"]
    assert main(argv) == EXIT_PASS
    report = capsys.readouterr().out
    out = tmp_path / "report.json"
    monkeypatch.setenv("BPCALC_PRIME", "4")
    monkeypatch.setenv("BPCALC_FORMAT", "json")
    monkeypatch.setenv("BPCALC_OUT", str(out))
    assert main(["localize-group", "Z/12", "--invert", "2"]) == EXIT_PASS
    assert capsys.readouterr().out == "Z/3\n"
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == report
    assert not out.exists()


def test_eval_leading_minus_literal_needs_double_dash(capsys):
    # argparse reads -3*v1 as an option; "--" before the literals, as the
    # help says, makes it a positional argument
    assert main(["eval", "--prime", "5", "--", "R[1]", "-3*v1"]) == EXIT_PASS
    assert capsys.readouterr().out == "-15\n"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    assert 'bpcalc eval -- "R[1]" -3*v1' in " ".join(capsys.readouterr().out.split())


def test_psi_integral_failure_is_a_failed_record(monkeypatch, capsys):
    real = hopf.psi_t

    def psi_t(ctx, k):
        # only the structural check's own call fails; every other pipeline
        # gets the real diagonal, so the run goes on to the report
        if k == 2 and sys._getframe(1).f_code is hopf.verify_structural.__code__:
            raise ValueError("psi t_2: non-integral coefficient at ((1,), (4,))")
        return real(ctx, k)

    monkeypatch.setattr(hopf, "psi_t", psi_t)
    argv = ["verify", "all", "--prime", "5", "--format", "json", "--no-timing"]
    assert main(argv) == EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert captured.err == ""
    failed = [c for c in json.loads(captured.out)["checks"] if c["status"] == "fail"]
    assert [c["id"] for c in failed] == ["structural.psi-integral"]
    assert failed[0]["witness"] == "psi t_2: non-integral coefficient at ((1,), (4,))"
    assert failed[0]["computed"].startswith("psi t_1: ")
    assert "psi t_3: " in failed[0]["computed"]


@pytest.mark.parametrize(
    "exc",
    [
        ValueError("psi t_3: non-integral coefficient"),
        ZeroDivisionError("division by zero"),
        NotDivisibleError("coefficient 1 not divisible by 5 p-locally"),
    ],
)
def test_verify_all_records_a_crashed_target(monkeypatch, capsys, exc):
    def crash(ctx):
        raise exc

    monkeypatch.setattr(opcalc, "verify_lemma_7_9", crash)
    argv = ["verify", "all", "--prime", "5", "--format", "json", "--no-timing"]
    assert main(argv) == EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert [c["id"] for c in failed] == ["lemma7.9.crashed"]
    assert failed[0]["witness"] == f"{type(exc).__name__}: {exc}"
    # the targets before and after it still ran, and passed
    for name in cli.VERIFY_ALL:
        if name != "lemma7.9":
            assert any(c["id"].startswith(name + ".") for c in checks), name


@pytest.mark.parametrize(
    "exc, code",
    [
        (ExponentOverflowError("past the key field"), EXIT_TRUNCATION),
        (PreconditionError("prime too small"), EXIT_USAGE),
        (ParseError("bad literal"), EXIT_USAGE),
    ],
)
def test_verify_all_still_aborts_on_truncation_and_usage(
    monkeypatch, capsys, exc, code
):
    def crash(ctx):
        raise exc

    monkeypatch.setattr(hopf, "verify_lemma_7_1", crash)
    assert main(["verify", "all", "--prime", "5", "--format", "json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(str(exc))


def _failing_report(ctx):
    report = Report("a pipeline with one failed check")
    report.check(id="planted", anchor="a check that fails", status=False)
    return report


def _raising(exc):
    def build(ctx):
        raise exc

    return build


@pytest.mark.parametrize(
    "argv, patch, code",
    [
        (["--prime", "5"], None, EXIT_PASS),
        (["--prime", "5"], _failing_report, EXIT_CHECK_FAILURE),
        (["--prime", "9"], None, EXIT_USAGE),
        # a flag verify does not take: its own usage error
        (["--prime", "5", "--degree-bound", "0"], None, EXIT_USAGE),
        (["--prime", "5"], _raising(PreconditionError("prime too small")), EXIT_USAGE),
        (["--prime", "5"], _raising(ParseError("bad literal")), EXIT_USAGE),
        (
            ["--prime", "5"],
            _raising(ExponentOverflowError("past the key field")),
            EXIT_TRUNCATION,
        ),
    ],
)
def test_verify_target_exit_codes(monkeypatch, capsys, argv, patch, code):
    if patch is not None:
        monkeypatch.setattr(opcalc, "verify_lemma_7_9", patch)
    try:
        got = main(["verify", "lemma7.9", "--no-timing"] + argv)
    except SystemExit as exc:  # the parser's error, after its usage
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    err = captured.err
    if err.startswith("usage: bpcalc verify [-h]"):
        err = err[err.index("\nbpcalc verify: error: ") + 1 :]
    assert "Traceback" not in err
    if code == EXIT_PASS:
        assert err == "" and "status: PASS" in captured.out
    elif code == EXIT_CHECK_FAILURE:
        assert err == "" and "[FAIL] planted" in captured.out
    else:  # usage and truncation: one error line on stderr, no report
        assert captured.out == ""
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "exc",
    [
        ValueError("psi t_3: non-integral coefficient"),
        ZeroDivisionError("division by zero"),
        NotDivisibleError("coefficient 1 not divisible by 5 p-locally"),
    ],
)
def test_verify_target_records_a_crash(monkeypatch, capsys, exc):
    # a single target crashes into one failed record, as under verify all
    monkeypatch.setattr(opcalc, "verify_lemma_7_9", _raising(exc))
    argv = ["verify", "lemma7.9", "--prime", "5", "--format", "json", "--no-timing"]
    assert main(argv) == EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "fail"
    assert [(c["id"], c["status"]) for c in report["checks"]] == [
        ("lemma7.9.crashed", "fail")
    ]
    assert report["checks"][0]["witness"] == f"{type(exc).__name__}: {exc}"


EVAL_EXIT_CASES = [
    (["R[1]", "v1^2", "--prime", "5"], EXIT_PASS, "10*v1\n"),
    (["R[1]", "v1 +* v2"], EXIT_USAGE, ""),
    (["R[1]", "v1", "--prime", "4"], EXIT_USAGE, ""),
    (["R[0,0,0,0,1]", "v1"], EXIT_TRUNCATION, ""),
    (["R[1]", "1/0*v1"], EXIT_USAGE, ""),
    (["2/0*R[1]", "v1"], EXIT_USAGE, ""),
    (["3/2*R[1]", "v1^2", "--prime", "5"], EXIT_PASS, "15*v1\n"),
    # a dangling sign is a usage error, as in a polynomial literal
    (["--prime", "5", "--", "R[1] -", "v2"], EXIT_USAGE, ""),
    (["--prime", "5", "--", "-", "v2"], EXIT_USAGE, ""),
    (["--prime", "5", "--", "R[1] - - R[p]", "v2"], EXIT_USAGE, ""),
    (["--prime", "5", "--", "R[1] +", "v2"], EXIT_USAGE, ""),
    # a word ends at its last R[..]: "2R[p]" is not a second term
    (["R[1]2R[p]", "v2", "--prime", "5"], EXIT_USAGE, ""),
    (["--prime", "5", "--", "R[1]", "v1*v4"], EXIT_TRUNCATION, ""),
    # integrality is checked on the value of the whole expression:
    # R[1](v2/7) is not integral, R[1]R[1](v2)/7 = -392/7*v1^6 is
    (["--prime", "7", "--", "R[1]R[1]", "1/7*v2"], EXIT_PASS, "-56*v1^6\n"),
    (["--prime", "7", "--", "R[1]", "1/49*v1^2"], EXIT_USAGE, ""),
    # identity words pass x through; scalars may have a p in a denominator
    (["--prime", "7", "--", "R[0]", "1/7*v1"], EXIT_PASS, "1/7*v1\n"),
    (["--prime", "7", "--", "R[1] + R[0]", "1/7*v1"], EXIT_PASS, "1 + 1/7*v1\n"),
    (["--prime", "7", "--", "1/7*R[1]", "v2"], EXIT_PASS, "-8/7*v1^7\n"),
    # every letter is checked against the truncation, even after a letter
    # that sends the value to 0
    *(
        (["--prime", "5", "--", word, x], EXIT_TRUNCATION, "")
        for word in ("R[0,0,0,0,1]R[1]", "R[1]R[0,0,0,0,1]")
        for x in ("0", "1", "v1")
    ),
    # identity words alone check their input like every other word
    (["--prime", "5", "--", "R[0]", "v1*v4"], EXIT_TRUNCATION, ""),
    (["--prime", "5", "--", "2*R[0] - R[]", "v1^70000"], EXIT_TRUNCATION, ""),
]


@pytest.mark.parametrize("argv, code, out", EVAL_EXIT_CASES)
def test_eval_exit_codes(capsys, argv, code, out):
    assert main(["eval"] + argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert "Traceback" not in captured.err
    if code != EXIT_PASS:
        assert len(captured.err.splitlines()) == 1
    if argv[-1] == "v1*v4":
        # the Cartan side names v4, not the Hazewinkel table's range
        assert captured.err == "truncation error: no substitution image for v4\n"
    if argv[-1] == "1/49*v1^2":
        # 2/7*v1: a value with a p in a denominator is a bad input, not a crash
        assert captured.err == "error: non-integral value of R[1]\n"


# the eval and bad-input argvs above, and more that name each command
PARSER_ARGVS = [
    ["verify", "lemma7.5", "--prime", "7", "--format", "json", "--no-timing"],
    ["verify", "thm7.10", "--prime", "5", "--format", "json", "--out", "r.json"],
    ["verify", "bogus"],
    ["eval", "Q[1]", "v1"],
    ["eval", "R[1]", "v2", "extra"],
    ["localize-group", "Z/12", "--invert", "3", "--oracle"],
    ["localize-group", "Z/12"],
    ["cat", "localize", "x.cat", "--marked-class", "T"],
    ["cat", "bogus", "x.cat"],
    *(["eval"] + argv for argv, _, _ in EVAL_EXIT_CASES),
    *BAD_INPUT_ARGVS,
    *DROPPED_FLAG_ARGVS,
]


@pytest.mark.parametrize("env", [{}, {"BPCALC_PRIME": "5", "BPCALC_DEGREE_BOUND": "3"}])
@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_one_subparser_parses_as_every_subparser(monkeypatch, capsys, env, argv):
    # main builds only the parser its first argument names and hands it the
    # rest of argv; that parse matches the all-commands parser's on all of
    # argv (namespace plus command, output, exit code).  The parsers read no
    # environment, so a BPCALC_ variable leaves every parse as it is
    def parse(parser, args, command=None):
        try:
            got = vars(parser.parse_args(args))
        except SystemExit as exc:
            got = exc.code
        else:
            got = {**got, "command": command} if command else got
        return got, capsys.readouterr()

    without_env = parse(cli.build_parser(), argv)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    own = parse(cli.build_parser(argv[0]), argv[1:], argv[0])
    assert own == parse(cli.build_parser(), argv) == without_env


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_subparser_help_is_every_subparser_help(capsys, command):
    helps = []
    for parser, args in (
        (cli.build_parser(command), ["--help"]),
        (cli.build_parser(), [command, "--help"]),
    ):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(args)
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith(f"usage: bpcalc {command} [-h]")


def test_every_option_is_read_and_every_config_field_is_an_option():
    # no dead knob: each Config field is an option of some command, and each
    # argument a command's parser takes is a Config field or one that main
    # reads as args.<dest>
    dests = {
        action.dest
        for command in cli.COMMANDS
        for action in cli.build_parser(command)._actions
        if action.dest != "help"
    }
    config = {f.name for f in dataclasses.fields(cli.Config)}
    read = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(cli.main)))
    assert config <= dests
    assert dests - config <= read
    assert not config & read


@pytest.mark.parametrize(
    "argv, out",
    [
        (["eval", "--prime", "5", "--", "R[1]", "v1^2"], "10*v1\n"),
        (["verify", "thm7.10", "--prime", "5", "--no-timing"], "status: PASS\n"),
        (["localize-group", "Z/12", "--invert", "2"], "Z/3\n"),
    ],
)
def test_a_named_command_builds_one_parser(monkeypatch, capsys, argv, out):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == EXIT_PASS
    assert built == [f"bpcalc {argv[0]}"]
    assert out in capsys.readouterr().out
    # with no command word, the all-commands parser prints the top-level usage
    assert main([]) == EXIT_USAGE
    assert capsys.readouterr().out.startswith(
        "usage: bpcalc [-h] [--version] {verify,eval,localize-group,cat} ..."
    )
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: bpcalc [-h] [--version]") and "invalid choice: 'bogus'" in err


def test_main_reads_sys_argv(monkeypatch, capsys):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["bpcalc", "eval", "--prime", "5", "--", "R[1]", "v1^2"])
    assert main() == EXIT_PASS
    assert capsys.readouterr().out == "10*v1\n"
    monkeypatch.setattr(sys, "argv", ["bpcalc"])
    assert main() == EXIT_USAGE
    assert "{verify,eval,localize-group,cat}" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["bpcalc", "bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


FAILING_CLASS_CAT = """
objects: x y z
mor f : x -> y
mor g : x -> z
class S = { f }
"""

MUTANT_MONAD_CAT = """
objects: x0 x1
mor u : x0 -> x1
functor E = { x0: x0, x1: x0 | u: u }
nat eta E = { x0: id_x0, x1: id_x1 }
"""


def _json_report(argv, capsys):
    code = main(argv + ["--format", "json", "--no-timing"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None, captured.err


def test_cat_localize_reports_a_class_that_fails_the_axioms(tmp_path, capsys):
    path = tmp_path / "fails.cat"
    path.write_text(FAILING_CLASS_CAT)
    code, report, err = _json_report(["cat", "localize", str(path)], capsys)
    assert code == EXIT_CHECK_FAILURE
    assert err == ""
    assert report["status"] == "fail"
    assert [r["id"] for r in report["checks"] if r["status"] == "fail"] == [
        "class[S].square-completion"
    ]
    assert all(r["id"].startswith("class[S].") for r in report["checks"])
    assert main(["cat", "localize", str(path)]) == EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "class[S].square-completion" in captured.out


def test_cat_check_rejects_a_mutant_monad(tmp_path, capsys):
    path = tmp_path / "mutant.cat"
    path.write_text(MUTANT_MONAD_CAT)
    code, report, err = _json_report(["cat", "check", str(path)], capsys)
    assert code == EXIT_CHECK_FAILURE and err == ""
    assert [r["id"] for r in report["checks"] if r["status"] == "fail"] == [
        "monad[E].table-wellformed"
    ]


def test_localize_group_oracle_disagreement_exits_check_failure(monkeypatch, capsys):
    # a localization that keeps the torsion it should delete
    monkeypatch.setattr(
        cli.abloc, "localize", lambda M, S: cli.abloc.LocalizedGroup(M.rank, M.torsion, S)
    )
    assert main(["localize-group", "Z/12", "--invert", "2", "--oracle"]) == EXIT_CHECK_FAILURE
    assert capsys.readouterr().out == "Z/4 + Z/3\noracle: Z/3 (DISAGREES)\n"
