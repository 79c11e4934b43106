#!/usr/bin/env python
"""Documentation lint: links resolve, the paper map matches the registry.

Seven checks, all cheap enough for every CI run:

1. **Internal links** — every relative markdown link in ``docs/*.md``
   and ``README.md`` must point at a file or directory that exists
   (anchors are stripped; ``http(s)://`` and ``mailto:`` links are
   skipped — external availability is not this script's business).
2. **Paper map × registry** — every experiment name in the second
   column of the table in ``docs/paper-map.md`` must be a registered
   experiment (the same set ``repro list`` prints), and every
   registered experiment must appear in the map, so the map can neither
   name ghosts nor silently omit a new artefact.
3. **Rule table × lint registry** — the rule column of the table in
   ``docs/determinism.md`` must equal the ids ``repro lint
   --list-rules`` knows, so the invariant catalogue can neither
   document retired rules nor silently omit a new one.
4. **CLI verbs × docs** — every non-experiment subcommand of ``python
   -m repro`` (``run``, ``gc``, ``checkpoint``, …) must be mentioned as
   ``repro <verb>`` somewhere in the documentation corpus, so a new
   verb cannot ship undocumented.
5. **Run flags × docs** — every long option of ``repro run`` (the
   experiment-facing surface: ``--out``, ``--checkpoint-every``, …)
   must appear verbatim somewhere in the corpus, so a new runner knob
   cannot ship undocumented either.
6. **Scenario catalogue × registry** — the first column of the
   catalogue table in ``docs/scenarios.md`` must equal the names
   ``repro list --scenarios`` prints, so a newly registered scenario
   cannot ship undocumented and the docs cannot name ghosts.
7. **Docstrings × files** — every ``*.md`` file a docstring under
   ``src/`` names (``docs/replay.md``, ``benchmarks/suite/README.md``)
   must exist, as a path from the repository root — the corpus once
   carried eight pointers to a ``DESIGN.md`` that was never written.

Usage::

    PYTHONPATH=src python docs/check_docs.py

Exits non-zero listing every problem found.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DOCS = REPO / "docs"

#: ``[text](target)`` — good enough for the hand-written markdown here.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A table row whose second cell is a backticked name.
_MAP_ROW = re.compile(r"^\|[^|]*\|\s*`([a-z0-9_-]+)`\s*\|")
#: A determinism.md table row whose first cell is a backticked rule id.
_RULE_ROW = re.compile(r"^\|\s*`([A-Z]+(?:-[A-Z]+)+)`\s*\|")
#: A scenarios.md catalogue row whose first cell is a backticked name.
_SCENARIO_ROW = re.compile(r"^\|\s*`([a-z0-9_-]+)`\s*\|")
#: The heading that opens the scenario catalogue table.
_CATALOGUE_HEADING = "## The built-in catalogue"
#: A markdown file named in prose: ``docs/replay.md``, ``README.md``.
_MD_FILE = re.compile(r"(?<![\w./*-])[\w.-]+(?:/[\w.-]+)*\.md\b")


def check_links(paths: list[Path]) -> list[str]:
    """Every relative link in ``paths`` resolves to an existing file."""
    problems = []
    for path in paths:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO)}:{lineno}: broken link "
                        f"-> {target}"
                    )
    return problems


def check_paper_map(map_path: Path) -> list[str]:
    """The paper map's experiment column == the live registry, exactly."""
    from repro.api import experiment_names

    mapped = set()
    for line in map_path.read_text().splitlines():
        match = _MAP_ROW.match(line.strip())
        if match:
            mapped.add(match.group(1))
    registered = set(experiment_names())
    problems = []
    for ghost in sorted(mapped - registered):
        problems.append(
            f"{map_path.relative_to(REPO)}: names unregistered experiment "
            f"{ghost!r} (repro list knows: {sorted(registered)})"
        )
    for missing in sorted(registered - mapped):
        problems.append(
            f"{map_path.relative_to(REPO)}: registered experiment "
            f"{missing!r} is missing from the paper map"
        )
    if not mapped:
        problems.append(f"{map_path.relative_to(REPO)}: no map rows found")
    return problems


def check_rule_table(doc_path: Path) -> list[str]:
    """determinism.md's rule column == the lint registry, exactly."""
    from repro.lintkit import rule_ids

    documented = set()
    for line in doc_path.read_text().splitlines():
        match = _RULE_ROW.match(line.strip())
        if match:
            documented.add(match.group(1))
    registered = set(rule_ids())
    problems = []
    for ghost in sorted(documented - registered):
        problems.append(
            f"{doc_path.relative_to(REPO)}: documents unregistered lint "
            f"rule {ghost!r} (repro lint --list-rules knows: "
            f"{sorted(registered)})"
        )
    for missing in sorted(registered - documented):
        problems.append(
            f"{doc_path.relative_to(REPO)}: lint rule {missing!r} is "
            f"missing from the invariant table"
        )
    if not documented:
        problems.append(f"{doc_path.relative_to(REPO)}: no rule rows found")
    return problems


def check_cli_verbs(paths: list[Path]) -> list[str]:
    """Every non-experiment CLI verb appears as ``repro <verb>`` somewhere."""
    import argparse

    from repro.api import experiment_names
    from repro.cli import build_parser

    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    # experiment aliases (`repro table1` == `repro run table1`) are
    # documented through the paper map; only the real verbs need prose
    verbs = set(subparsers.choices) - set(experiment_names())
    corpus = "\n".join(path.read_text() for path in paths)
    problems = []
    for verb in sorted(verbs):
        if not re.search(rf"\brepro {re.escape(verb)}\b", corpus):
            problems.append(
                f"CLI verb {verb!r} is not documented: no 'repro {verb}' "
                f"anywhere in docs/*.md or README.md"
            )
    return problems


def check_run_flags(paths: list[Path]) -> list[str]:
    """Every long option of ``repro run`` appears verbatim in the docs."""
    import argparse

    from repro.cli import build_parser

    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    run_parser = subparsers.choices["run"]
    flags = sorted(
        opt
        for action in run_parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    )
    corpus = "\n".join(path.read_text() for path in paths)
    problems = []
    for flag in flags:
        if flag not in corpus:
            problems.append(
                f"run flag {flag!r} is not documented: it appears nowhere "
                f"in docs/*.md or README.md"
            )
    return problems


def check_scenarios(doc_path: Path) -> list[str]:
    """scenarios.md's catalogue table == the scenario registry, exactly.

    Only the table under the catalogue heading counts — the pattern
    table earlier in the page also backticks its first column.
    """
    from repro.scenarios import scenario_names

    documented = set()
    in_catalogue = False
    for line in doc_path.read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("## "):
            in_catalogue = stripped == _CATALOGUE_HEADING
            continue
        if in_catalogue:
            match = _SCENARIO_ROW.match(stripped)
            if match:
                documented.add(match.group(1))
    registered = set(scenario_names())
    problems = []
    for ghost in sorted(documented - registered):
        problems.append(
            f"{doc_path.relative_to(REPO)}: documents unregistered "
            f"scenario {ghost!r} (repro list --scenarios knows: "
            f"{sorted(registered)})"
        )
    for missing in sorted(registered - documented):
        problems.append(
            f"{doc_path.relative_to(REPO)}: registered scenario "
            f"{missing!r} is missing from the catalogue table"
        )
    if not documented:
        problems.append(
            f"{doc_path.relative_to(REPO)}: no catalogue rows found under "
            f"{_CATALOGUE_HEADING!r}"
        )
    return problems


def check_docstring_files(source_root: Path, repo: Path = REPO) -> list[str]:
    """Every ``*.md`` a docstring under ``source_root`` names exists."""
    problems = []
    for path in sorted(source_root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            text = ast.get_docstring(node, clean=False)
            if text is None:
                continue
            first = node.body[0].lineno
            for offset, line in enumerate(text.splitlines()):
                for target in _MD_FILE.findall(line):
                    if not (repo / target).is_file():
                        problems.append(
                            f"{path.relative_to(repo)}:{first + offset}: "
                            f"docstring names {target}, which does not exist"
                        )
    return problems


def main() -> int:
    """Run all checks; print problems; 0 iff the docs are clean."""
    markdown = sorted(DOCS.glob("*.md")) + [REPO / "README.md"]
    problems = check_links(markdown)
    problems += check_paper_map(DOCS / "paper-map.md")
    problems += check_rule_table(DOCS / "determinism.md")
    problems += check_cli_verbs(markdown)
    problems += check_run_flags(markdown)
    problems += check_scenarios(DOCS / "scenarios.md")
    problems += check_docstring_files(REPO / "src")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK: {len(markdown)} files, links + paper map + rule "
          f"table + CLI verbs + run flags + scenario catalogue + "
          f"docstring file references verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
