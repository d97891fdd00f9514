"""Check records and reports shared by the verification pipelines and the CLI.

A report is a deterministic, ordered list of check records.  Identical
invocations produce identical reports apart from wall-clock time, which
sits only in the ``runtime_ms`` field of each record; ``as_dict`` and
``to_json`` omit it with ``timing=False`` and the text form never shows it.
``Report`` measures each record itself: ``check`` stamps the whole
milliseconds since the report was created or last took a record.

Two rules cover most records.  A check that searches for a counterexample
goes through ``scan``: the record passes when the search finds none and
fails with the first one as its witness, and the search stops there.  A
check that compares a computed value with an exact expected one goes
through ``expect``: the record passes when the two are equal and prints
both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from time import perf_counter

SCHEMA_VERSION = "bpcalc-report/1"


@dataclass
class CheckRecord:
    id: str
    anchor: str  # the identity or statement being verified, verbatim
    status: bool
    expected: str = ""
    computed: str = ""
    modulus: str = ""
    witness: str = ""
    note: str = ""
    runtime_ms: int = 0

    def as_dict(self, timing=True):
        d = {name: getattr(self, name) for name in _FIELDS}
        d["status"] = "pass" if self.status else "fail"
        if not timing:
            del d["runtime_ms"]
        return d


_FIELDS = tuple(f.name for f in fields(CheckRecord))  # the one schema, in order


@dataclass
class Report:
    title: str
    config: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    tool_version: str = ""

    def __post_init__(self):
        if not self.tool_version:
            from . import __version__

            self.tool_version = __version__
        self._mark = perf_counter()  # not a field: kept out of eq, repr, as_dict

    def add(self, record: CheckRecord):
        self.records.append(record)
        self._mark = perf_counter()
        return record

    def check(self, id, anchor, status, **kw):
        """Record a check; ``runtime_ms`` defaults to the time since the mark."""
        kw.setdefault("runtime_ms", int((perf_counter() - self._mark) * 1000))
        return self.add(CheckRecord(id=id, anchor=anchor, status=bool(status), **kw))

    def scan(self, id, anchor, failures, **kw):
        """Record a first-counterexample check.  ``failures`` is a lazy
        iterable of witnesses: the record passes when it is empty and fails
        with its first item otherwise.  Nothing past the first item is drawn,
        and the record is stamped after the draw, so ``runtime_ms`` covers
        the scan.  Returns the record."""
        witness = next(iter(failures), None)
        return self.check(id, anchor, witness is None, witness=witness or "", **kw)

    def expect(self, id, anchor, computed, expected, show=str, **kw):
        """Record an equality check: the record passes when ``computed ==
        expected`` and prints both through ``show``.  Stamped like
        ``check``.  Returns the record."""
        kw.update(expected=show(expected), computed=show(computed))
        return self.check(id, anchor, computed == expected, **kw)

    def extend(self, other: "Report", prefix: str = ""):
        for rec in other.records:
            copy = CheckRecord(**{**rec.__dict__})
            if prefix:
                copy.id = f"{prefix}.{copy.id}"
            self.records.append(copy)
        self._mark = perf_counter()

    @property
    def passed(self) -> bool:
        return all(r.status for r in self.records)

    def failures(self):
        return [r for r in self.records if not r.status]

    def as_dict(self, timing=True):
        return {
            "schema": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "title": self.title,
            "config": dict(self.config),
            "status": "pass" if self.passed else "fail",
            "checks": [r.as_dict(timing=timing) for r in self.records],
        }

    def to_json(self, timing=True) -> str:
        return json.dumps(self.as_dict(timing=timing), indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        report = cls(
            title=data["title"],
            config=data.get("config", {}),
            tool_version=data.get("tool_version", ""),
        )
        for c in data.get("checks", []):
            kw = {name: c[name] for name in _FIELDS if name in c}
            kw.update(anchor=c.get("anchor", ""), status=c.get("status") == "pass")
            report.add(CheckRecord(**kw))
        return report

    def to_text(self) -> str:
        lines = [
            f"report: {self.title}",
            f"tool:   bpcalc {self.tool_version}",
            f"config: " + ", ".join(f"{k}={v}" for k, v in sorted(self.config.items())),
            f"status: {'PASS' if self.passed else 'FAIL'}",
            "",
        ]
        width = max((len(r.id) for r in self.records), default=4)
        for r in self.records:
            mark = "ok " if r.status else "FAIL"
            line = f"  [{mark}] {r.id.ljust(width)}  {r.anchor}"
            lines.append(line)
            if r.expected or r.computed:
                lines.append(f"         expected: {r.expected}")
                lines.append(f"         computed: {r.computed}")
            if r.modulus:
                lines.append(f"         modulus:  {r.modulus}")
            if r.witness:
                lines.append(f"         witness:  {r.witness}")
            if r.note:
                lines.append(f"         note:     {r.note}")
        return "\n".join(lines) + "\n"
