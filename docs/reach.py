#!/usr/bin/env python
"""Reach map: which lines of ``src/repro`` does no artefact execute?

A report, not a gate: it exits 0 whatever it finds, and fails only when a
leg crashes or a ``repro`` verb exits with the wrong status.  It installs a
``sys.settrace`` / ``threading.settrace`` line tracer before ``import
repro`` (so module-level lines count), gives a local trace function only
to frames whose file lies in the ``repro`` package, and then runs four
legs in this process, one after another:

1. every registered experiment at its tiny spec (``TINY`` in
   ``tests/api/test_registry.py``) with its default schedulers: through
   ``run_many`` with telemetry off, as ``repro run`` runs it, and
   through ``run(obs=True)``;
2. ``table1``'s fourteen rows under every replay mode, through
   ``ExperimentSpec.sweep()`` and ``run_many(out_dir=...)``, then the
   cached rerun of the same sweep;
3. every script in ``examples/``;
4. the ``repro`` verbs the CI workflow runs, called through
   ``repro.cli.main``.

Nothing runs in a process pool, whose children the tracer would not see.

A module's executable lines are the line numbers of its compiled code
objects (``co_lines()``, walked recursively).  A line marked ``# pragma:
no cover`` is left out, with the block it opens, as ``coverage`` does.
Each module prints as ``module: unreached/executable`` followed by its
unreached lines as ranges; the last line is the total.

Usage::

    PYTHONPATH=src python docs/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import textwrap
import threading
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_PRAGMA = "# pragma: no cover"


class Tracer:
    """Collects the lines executed in every file under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.prefix = os.path.join(str(root), "")
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}  # filename -> local tracer or None

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = self._local[filename]
        except KeyError:
            local = self._local[filename] = (
                self._local_tracer(filename)
                if filename.startswith(self.prefix) else None)
        if local is None:
            return None
        return local(frame, event, arg)

    def _local_tracer(self, filename: str):
        add = self.hits.setdefault(filename, set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def __enter__(self) -> "Tracer":
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path``'s code objects, less ``pragma: no cover`` blocks."""
    source = path.read_text()
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    text = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.stmt, ast.excepthandler))
                and _PRAGMA in text[node.lineno - 1]):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def ranges(lines: set[int]) -> str:
    """``{3, 4, 5, 9}`` → ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(package: Path, hits: dict[str, set[int]]) -> list[str]:
    """One line per module under ``package``, then the total."""
    out, unreached_total, executable_total = [], 0, 0
    for path in sorted(package.rglob("*.py")):
        executable = executable_lines(path)
        unreached = executable - hits.get(str(path), set())
        unreached_total += len(unreached)
        executable_total += len(executable)
        head = f"{path.relative_to(package)}: {len(unreached)}/{len(executable)}"
        out.append(textwrap.fill(
            f"{head}  {ranges(unreached)}".rstrip(), width=100,
            subsequent_indent="    ", break_on_hyphens=False))
    out.append(f"total: {unreached_total}/{executable_total} executable "
               f"lines unreached")
    return out


def _load(path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_experiments() -> None:
    from repro.api import ExperimentSpec, run, run_many

    tiny = _load(REPO / "tests" / "api" / "test_registry.py").TINY
    for name, fields in sorted(tiny.items()):
        spec = ExperimentSpec(name, **{k: v for k, v in fields.items()
                                       if k != "schedulers"})
        run_many([spec])  # as `repro run` does: prerequisites first
        run(spec, obs=True)


def run_table1(tmp: Path) -> None:
    from repro.api import ExperimentSpec, run_many
    from repro.core.replay import REPLAY_MODES

    legs = ExperimentSpec("table1", duration=0.04,
                          replay_modes=REPLAY_MODES).sweep()
    fresh = run_many(legs, out_dir=tmp)
    cached = run_many(legs, out_dir=tmp)
    assert [a.canonical_json() for a in cached] == [
        a.canonical_json() for a in fresh], "the cached rerun changed bytes"


def run_examples() -> None:
    argv = sys.argv
    try:
        for path in sorted((REPO / "examples").glob("*.py")):
            sys.argv = [str(path)]
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def run_cli(tmp: Path) -> None:
    """The ``repro`` verbs .github/workflows/ci.yml runs.  The two lists
    change together; tests/test_docs.py checks that they name the same
    verbs."""
    from repro.cli import main

    def verb(*argv, status: int = 0) -> None:
        argv = [str(arg) for arg in argv]
        got = main(argv)
        assert got == status, f"repro {' '.join(argv)} exited {got}, not {status}"

    art, rec, queue = tmp / "artifacts", tmp / "rec", tmp / "qdir"
    verb("list")
    verb("list", "--scenarios")
    verb("run", "scenario-matrix", "--scenarios", "long-lived-dumbbell", status=2)
    verb("run", "gadgets", "--json", "--out", art)
    verb("run", "gadgets", "--out", art)
    for entry in art.glob("gadgets-*.json"):
        entry.write_bytes(entry.read_bytes()[:100])
    verb("run", "gadgets", "--out", art)
    verb("record", "table1", "--rows", "0", "--duration", "0.04",
         "--out", rec / "schedules")
    verb("run", "table1", "--rows", "0", "--duration", "0.04", "--out", rec)
    verb("profile", "fig2", "--schedulers", "sjf", "--duration", "0.02",
         "--trace", tmp / "profile_trace.json")
    # The queue verbs come last: `repro worker` installs its signal
    # handlers in this process.
    verb("submit", "table1", "--rows", "0", "--duration", "0.04",
         "--seeds", "1", "2", "3", "4", "--queue", queue)
    for _ in range(2):
        verb("worker", "--queue", queue, "--drain", "--batch-size", "2")
    verb("worker", "--queue", queue, "--drain", "--lease", "nan", status=2)
    verb("status", "--queue", queue)
    verb("status", "--queue", queue, "--json")
    verb("gather", queue, "--json")
    verb("gc", "--queue", queue, "--dry-run")
    verb("gc", "--queue", queue)


def main() -> None:
    spec = importlib.util.find_spec("repro")
    if spec is None:
        sys.exit("repro is not importable; run with PYTHONPATH=src")
    package = Path(spec.submodule_search_locations[0])
    with Tracer(package) as tracer, tempfile.TemporaryDirectory() as tmp:
        import repro  # noqa: F401 - traced: module-level lines count

        tmp = Path(tmp)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            run_experiments()
            run_table1(tmp / "table1")
            run_examples()
            run_cli(tmp / "cli")
    print(f"# reach map of {package}, Python {sys.version.split()[0]}; every "
          f"leg runs serially in this process (a pool's children are not traced)")
    print("# legs: experiments at their tiny specs (obs off and on), table1 x "
          "every replay mode and its cached rerun, examples/, CI's repro verbs")
    print("# module: unreached/executable  unreached line ranges")
    for line in report(package, tracer.hits):
        print(line)


if __name__ == "__main__":
    main()
