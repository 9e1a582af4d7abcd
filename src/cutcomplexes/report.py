"""Verification report records: one entry per recipe the suites run."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field


@dataclass
class ReportEntry:
    """One verified instance: what was expected, what was computed, verdict."""

    id: str
    expected: str
    computed: str
    passed: bool
    ms: float
    note: str = ""

    def to_json_obj(self):
        obj = {
            "id": self.id,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "ms": round(self.ms, 3),
        }
        if self.note:
            obj["note"] = self.note
        return obj


@dataclass
class VerificationReport:
    entries: list = field(default_factory=list)

    def add(self, entry: ReportEntry):
        self.entries.append(entry)

    def extend(self, entries):
        self.entries.extend(entries)

    def sort(self):
        self.entries.sort(key=lambda e: e.id)

    @property
    def failures(self):
        return sum(1 for e in self.entries if not e.passed)

    @property
    def passed(self):
        return self.failures == 0

    def failed_entries(self):
        return [e for e in self.entries if not e.passed]

    def to_json_obj(self):
        return {
            "entries": [e.to_json_obj() for e in self.entries],
            "failures": self.failures,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj())

    def write_csv(self, fileobj):
        writer = csv.writer(fileobj)
        writer.writerow(["id", "expected", "computed", "pass", "ms", "note"])
        for e in self.entries:
            writer.writerow(
                [e.id, e.expected, e.computed, int(e.passed), f"{e.ms:.3f}", e.note]
            )

    def summary(self):
        total = len(self.entries)
        return f"{total - self.failures}/{total} checks passed"
