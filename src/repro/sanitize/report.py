"""The sanitizer's result object: diagnostics plus job-level verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analyze.diagnostics import Diagnostic, sort_diagnostics


@dataclass
class SanitizeReport:
    """Everything the sanitizer learned about one job."""

    nprocs: int
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: True when the job was aborted (rank failure or detected deadlock).
    aborted: bool = False
    #: Per-rank failure summaries ("DeadlockError: ...") when aborted.
    failures: dict[int, str] = field(default_factory=dict)
    #: Source file the job came from (CLI runs); stamped onto findings.
    program: Optional[str] = None
    #: Per-rank reliability counters (``ReliabilityStats`` snapshots) when
    #: the job ran on a fault-injected fabric; empty otherwise.
    reliability: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.diagnostics = sort_diagnostics(self.diagnostics)

    @property
    def clean(self) -> bool:
        return not self.diagnostics and not self.aborted

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def reliability_totals(self) -> dict[str, int | float]:
        """Job-wide reliability counters (sum over ranks); empty if none."""
        totals: dict[str, int | float] = {}
        for snap in self.reliability:
            for key, val in snap.items():
                totals[key] = totals.get(key, 0) + val
        return totals

    def reliability_text(self) -> str:
        """The nonzero job-wide counters on one line."""
        return ", ".join(
            f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(self.reliability_totals().items())
            if v) or "all zero"

    def format_text(self) -> str:
        lines = [d.format_text() for d in self.diagnostics]
        if self.aborted:
            for r, msg in sorted(self.failures.items()):
                lines.append(f"rank {r} failed: {msg}")
        if self.reliability:
            lines.append(f"reliability: {self.reliability_text()}")
        lines.append(f"{len(self.diagnostics)} finding(s) over "
                     f"{self.nprocs} rank(s)"
                     + (" [job aborted]" if self.aborted else ""))
        return "\n".join(lines)
