"""Findings and reports: what the analyzer returns and how it renders.

A :class:`Finding` is one rule violation at one source location; a
:class:`LintReport` is everything one ``repro lint`` invocation saw.
Findings are value objects — the runner produces them, the CLI renders
them, the tests assert on them — and their JSON form (see
:meth:`Finding.to_dict`) is a stable schema: ``repro lint --format
json`` output is consumed by CI, so keys are only ever added, never
renamed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "LintReport"]

#: Version of the ``--format json`` schema (bump only on breaking change).
JSON_SCHEMA_VERSION = 1


@dataclass(order=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``suppressed`` marks a finding covered by a reasoned
    ``# repro: allow(...)`` comment; suppressed findings are reported but
    do not fail the run, and ``reason`` carries the justification text.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    suppressed: bool = field(default=False, compare=False)
    reason: str | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        """The stable JSON form of this finding."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }

    def render(self) -> str:
        """``path:line:col: RULE-ID message`` (the text output line)."""
        tag = " [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}{tag} {self.message}"


@dataclass(slots=True)
class LintReport:
    """Everything one lint run saw: findings plus file accounting."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def unsuppressed(self) -> list[Finding]:
        """The findings that fail the run (not allow-listed)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def clean(self) -> bool:
        """True when nothing unsuppressed was found (exit code 0)."""
        return not self.unsuppressed

    def to_dict(self) -> dict:
        """The stable ``--format json`` document."""
        return {
            "version": JSON_SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "clean": self.clean,
            "unsuppressed": len(self.unsuppressed),
            "suppressed": sum(1 for f in self.findings if f.suppressed),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self, verbose: bool = False) -> str:
        """Human-readable report; suppressed findings only with ``verbose``."""
        shown = self.findings if verbose else self.unsuppressed
        lines = [finding.render() for finding in shown]
        suppressed = sum(1 for f in self.findings if f.suppressed)
        summary = (
            f"{len(self.unsuppressed)} finding(s) in {self.files_checked} "
            f"file(s) ({suppressed} suppressed)"
        )
        lines.append(summary)
        return "\n".join(lines)
