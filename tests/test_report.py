import dataclasses

from bpcalc import report as report_module
from bpcalc.report import CheckRecord, Report


def make_report():
    rep = Report("sample", config={"prime": 7})
    rep.check(id="a", anchor="first identity", status=True, expected="1", computed="1")
    rep.check(
        id="b",
        anchor="second identity",
        status=False,
        modulus="(p)",
        witness="t^2",
        runtime_ms=12,
    )
    return rep


def test_overall_status_is_conjunction():
    rep = make_report()
    assert not rep.passed
    assert [r.id for r in rep.failures()] == ["b"]
    rep2 = Report("empty")
    assert rep2.passed


def test_json_roundtrip():
    rep = make_report()
    back = Report.from_json(rep.to_json())
    assert back.title == rep.title
    assert back.config == {"prime": 7}
    assert [r.as_dict() for r in back.records] == [r.as_dict() for r in rep.records]
    assert not back.passed


def test_timing_isolated():
    rep = make_report()
    with_timing = rep.to_json(timing=True)
    without = rep.to_json(timing=False)
    assert "runtime_ms" in with_timing
    assert "runtime_ms" not in without


def test_text_rendering_carries_anchors():
    text = make_report().to_text()
    assert "first identity" in text
    assert "witness:  t^2" in text
    assert "FAIL" in text and "ok " in text


def test_extend_with_prefix():
    rep = make_report()
    outer = Report("outer")
    outer.extend(rep, prefix="inner")
    assert [r.id for r in outer.records] == ["inner.a", "inner.b"]
    # extension copies records
    outer.records[0].id = "mutated"
    assert rep.records[0].id == "a"


def test_report_times_each_record(monkeypatch):
    # a fake clock that advances 1 s per reading
    ticks = iter(range(100))
    monkeypatch.setattr(report_module, "perf_counter", lambda: next(ticks))
    rep = Report("clocked")  # mark at 0
    first = rep.check(id="a", anchor="x", status=True)  # read 1, mark 2
    assert first.runtime_ms == 1000
    second = rep.check(id="b", anchor="y", status=True)  # read 3
    assert second.runtime_ms == 1000
    # extend copies stored times and resets the mark
    outer = Report("outer")
    outer.extend(rep)
    assert [r.runtime_ms for r in outer.records] == [1000, 1000]
    assert outer.check(id="c", anchor="z", status=True).runtime_ms == 1000
    # an explicit value wins over the clock
    assert rep.check(id="d", anchor="w", status=True, runtime_ms=7).runtime_ms == 7
    # from_json keeps the stored values
    back = Report.from_json(outer.to_json())
    assert [r.runtime_ms for r in back.records] == [1000, 1000, 1000]
    # the mark is not part of equality, repr or the serialized form
    assert Report.from_json(rep.to_json()) == rep
    assert "_mark" not in repr(rep) and "_mark" not in rep.to_json()


def test_scan_of_no_failures_passes():
    rep = Report("scan")
    rec = rep.scan("a", "nothing to find", iter(()), note="n")
    assert rec is rep.records[0]
    assert rec.status and rec.witness == "" and rec.note == "n"


def test_scan_keeps_only_the_first_witness():
    rep = Report("scan")
    rec = rep.scan("a", "x", ["first", "second"])
    assert not rec.status and rec.witness == "first"
    assert not rep.passed


def test_scan_draws_nothing_past_the_first_witness():
    drawn = []

    def failures():
        for k in range(5):
            drawn.append(k)
            yield f"witness {k}"

    rec = Report("scan").scan("a", "x", failures())
    assert rec.witness == "witness 0" and drawn == [0]


def test_scan_time_is_in_the_record(monkeypatch):
    # a fake clock that advances 1 s per reading; the scan reads it twice
    ticks = iter(range(100))
    monkeypatch.setattr(report_module, "perf_counter", lambda: next(ticks))
    rep = Report("clocked")  # mark at 0

    def failures():
        report_module.perf_counter()
        report_module.perf_counter()
        yield "w"

    assert rep.scan("a", "x", failures()).runtime_ms == 3000


def test_expect_passes_on_equality_and_prints_both():
    rep = Report("expect")
    rec = rep.expect("a", "x", 2 + 2, 4, modulus="(p)")
    assert rec is rep.records[0]
    assert rec.status and (rec.expected, rec.computed, rec.modulus) == ("4", "4", "(p)")
    rec = rep.expect("b", "y", [1, 2], [1, 3], show=lambda v: "/".join(map(str, v)))
    assert not rec.status and (rec.expected, rec.computed) == ("1/3", "1/2")
    assert [r.id for r in rep.failures()] == ["b"]


def test_expect_is_stamped_like_check(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(report_module, "perf_counter", lambda: next(ticks))
    rep = Report("clocked")  # mark at 0
    assert rep.expect("a", "x", 1, 1).runtime_ms == 1000
    assert rep.expect("b", "y", 1, 1, runtime_ms=7).runtime_ms == 7


def test_record_schema_is_the_dataclass_fields():
    rec = make_report().records[1]
    names = [f.name for f in dataclasses.fields(CheckRecord)]
    assert list(rec.as_dict()) == names
    assert list(rec.as_dict(timing=False)) == names[:-1]
    assert rec.as_dict()["status"] == "fail"
    # a stored record missing optional keys takes the dataclass defaults
    back = Report.from_json('{"title": "t", "checks": [{"id": "a", "status": "pass"}]}')
    assert back.records[0] == CheckRecord(id="a", anchor="", status=True)
