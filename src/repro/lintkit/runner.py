"""The lint engine: walk files, run rules, apply suppressions, report.

Suppression syntax — one comment on the offending line::

    self._now = perf_counter()  # repro: allow(DET-WALLCLOCK) ENGINE_PERF accounting

* ``allow(ID)`` may carry several comma-separated rule ids.
* The reason text after the closing parenthesis is **mandatory**
  (``ALW-REASON`` fires on a bare allow), must reference a real rule
  (``ALW-UNKNOWN``), and must actually suppress something on its line
  (``ALW-UNUSED``) — so the suppression inventory in the tree is always
  current, justified, and greppable.
* The ALW-* rules themselves (and ``LNT-PARSE``) cannot be suppressed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.lintkit.config import rules_for_path
from repro.lintkit.findings import Finding, LintReport
from repro.lintkit.rules import ModuleContext, load_rules

__all__ = ["lint_file", "lint_paths"]

#: The allow-comment shape: comma-separated rule ids in parens, then the
#: mandatory reason text (see the module docstring for the full syntax).
_ALLOW = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)\s*(.*)$")


@dataclass(slots=True)
class _Suppression:
    """One parsed allow comment."""

    line: int
    rules: tuple[str, ...]
    reason: str


def _collect_suppressions(source: str) -> list[_Suppression]:
    """Every ``repro: allow(...)`` comment in ``source``, via tokenize.

    Tokenizing (rather than regexing raw lines) means a string literal
    that merely *contains* the allow syntax — lint's own tests are full
    of those — can never masquerade as a suppression.
    """
    suppressions: list[_Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW.search(token.string)
            if match is None:
                continue
            rules = tuple(
                rule.strip() for rule in match.group(1).split(",")
                if rule.strip()
            )
            suppressions.append(_Suppression(
                line=token.start[0],
                rules=rules,
                reason=match.group(2).strip(),
            ))
    except tokenize.TokenizeError:
        pass  # unparseable file: LNT-PARSE already tells the story
    return suppressions


def _meta_findings(
    path: str,
    suppressions: Iterable[_Suppression],
    used_lines: dict[int, set[str]],
) -> list[Finding]:
    """The ALW-* findings for one file's suppression comments."""
    registry = load_rules()
    out: list[Finding] = []
    for sup in suppressions:
        if not sup.reason:
            out.append(Finding(
                path=path, line=sup.line, col=0, rule="ALW-REASON",
                message="allow() without a reason — every suppression "
                        "must say why the exception is intentional",
            ))
            continue
        unknown = [rule for rule in sup.rules if rule not in registry]
        if unknown or not sup.rules:
            out.append(Finding(
                path=path, line=sup.line, col=0, rule="ALW-UNKNOWN",
                message=f"allow() names unknown rule(s) "
                        f"{unknown or ['<none>']} — see repro lint --list-rules",
            ))
            continue
        if not used_lines.get(sup.line, set()).intersection(sup.rules):
            out.append(Finding(
                path=path, line=sup.line, col=0, rule="ALW-UNUSED",
                message=f"allow({', '.join(sup.rules)}) suppresses nothing "
                        f"on this line — remove the stale comment",
            ))
    return out


def lint_file(path: str | Path, source: str | None = None) -> list[Finding]:
    """Lint one file; returns its findings (suppressed ones marked).

    ``source`` overrides reading from disk (fixture tests).  The rules
    applied are chosen by :func:`~repro.lintkit.config.rules_for_path`
    from ``path``'s directory segments, so the same snippet can be a
    violation under ``sim/`` and fine under ``cli``-land.
    """
    path_text = str(path)
    if source is None:
        source = Path(path).read_text(encoding="utf-8")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(
            path=path_text, line=exc.lineno or 1, col=exc.offset or 0,
            rule="LNT-PARSE", message=f"not parseable as Python: {exc.msg}",
        )]
    ctx = ModuleContext(path_text, tree)
    registry = load_rules()
    findings: list[Finding] = []
    for rule in rules_for_path(path_text):
        findings.extend(rule.check(ctx))

    suppressions = _collect_suppressions(source)
    used_lines: dict[int, set[str]] = {}
    for finding in findings:
        rule = registry[finding.rule]
        if not rule.suppressible:
            continue
        for sup in suppressions:
            if sup.line == finding.line and finding.rule in sup.rules \
                    and sup.reason:
                finding.suppressed = True
                finding.reason = sup.reason
                used_lines.setdefault(sup.line, set()).add(finding.rule)
                break
    findings.extend(_meta_findings(path_text, suppressions, used_lines))
    findings.sort()
    return findings


def _python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                candidate for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.is_file():
            files.add(path)
        else:
            raise ConfigurationError(f"lint path {raw!r} does not exist")
    return sorted(files)


def lint_paths(paths: Sequence[str | Path]) -> LintReport:
    """Lint every Python file under ``paths``; the ``repro lint`` core."""
    report = LintReport()
    for file in _python_files(paths):
        report.findings.extend(lint_file(file))
        report.files_checked += 1
    return report
