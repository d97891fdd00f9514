import json
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


@pytest.mark.parametrize(
    "argv",
    [
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
        ["verify", "lemma7.1", "--degree-bound", "0", "--prime", "5"],
        ["verify", "lemma7.1", "--degree-bound", "-2", "--prime", "5"],
        ["cat", "check", "no-such-file.cat"],
        ["cat", "localize", "no-such-file.cat"],
    ],
)
def test_bad_input_exits_usage_with_one_line_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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
    def crash(ctx, bound):
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
    assert main(["verify", "lemma7.9", "--no-timing"] + argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == EXIT_PASS:
        assert captured.err == "" and "status: PASS" in captured.out
    elif code == EXIT_CHECK_FAILURE:
        assert captured.err == "" and "[FAIL] planted" in captured.out
    else:  # usage and truncation: one line on stderr, no report
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


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


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["R[1]", "v1^2", "--prime", "5"], EXIT_PASS, "10*v1\n"),
        (["R[1]", "v1 +* v2"], EXIT_USAGE, ""),
        (["R[1]", "v1", "--prime", "4"], EXIT_USAGE, ""),
        (["R[0,0,0,0,1]", "v1"], EXIT_TRUNCATION, ""),
        (["R[1]", "1/0*v1"], EXIT_USAGE, ""),
        (["2/0*R[1]", "v1"], EXIT_USAGE, ""),
        (["3/2*R[1]", "v1^2", "--prime", "5"], EXIT_PASS, "15*v1\n"),
    ],
)
def test_eval_exit_codes(capsys, argv, code, out):
    assert main(["eval"] + argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert "Traceback" not in captured.err
    if code != EXIT_PASS:
        assert len(captured.err.splitlines()) == 1


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("BPCALC_PRIME", "5")
    parser = cli.build_parser()
    args = parser.parse_args(["eval", "R[1]", "v2"])
    assert args.prime == 5
    monkeypatch.setenv("BPCALC_DEGREE_BOUND", "3")
    assert cli.build_parser().parse_args(["eval", "R[1]", "v2"]).degree_bound == 3
    # a bad value is a usage error reported by argparse, not a crash
    monkeypatch.setenv("BPCALC_PRIME", "x")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "R[1]", "v1"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "invalid int value: 'x'" in err and "Traceback" not in err


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
