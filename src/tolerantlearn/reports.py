"""Run reports: config echo, per-trial records, aggregates and verdicts.

Reports are deterministic functions of (config, seed) up to the wall-clock
field.  Every PASS/FAIL verdict names the bound it tests and carries the
observed value, so it can be recomputed from the records in the same
report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

REPORT_FORMAT = "report/1"
REPORT_DIR_ENV = "TOLERANTLEARN_REPORT_DIR"


@dataclass
class Verdict:
    name: str
    bound: str
    observed: object
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: observed {self.observed} vs {self.bound}"


@dataclass
class RunReport:
    command: str
    config: dict
    records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add_verdict(self, name: str, bound: str, observed, passed: bool):
        self.verdicts.append(Verdict(name, bound, observed, bool(passed)))

    def to_doc(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "command": self.command,
            "config": self.config,
            "records": self.records,
            "aggregates": self.aggregates,
            "verdicts": [{"name": v.name, "bound": v.bound,
                          "observed": v.observed, "passed": v.passed}
                         for v in self.verdicts],
            "wall_clock_s": self.wall_clock_s,
        }

    def render(self) -> str:
        lines = [f"# {self.command}"]
        for key, val in self.aggregates.items():
            lines.append(f"{key}: {val}")
        for v in self.verdicts:
            lines.append(v.line())
        return "\n".join(lines)


def write_report(report: RunReport, out=None) -> Path | None:
    """Write to `out`, else to the report-directory override, else nowhere."""
    target = out
    if target is None:
        report_dir = os.environ.get(REPORT_DIR_ENV)
        if report_dir:
            Path(report_dir).mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%d-%H%M%S")
            target = Path(report_dir) / f"{report.command}-{stamp}.json"
    if target is None:
        return None
    path = Path(target)
    path.write_text(json.dumps(report.to_doc(), indent=2) + "\n")
    return path


def binomial_slack(p: float, trials: int) -> float:
    """Monte-Carlo slack: three standard deviations of a trial frequency."""
    return 3.0 * (p * (1.0 - p) / trials) ** 0.5
