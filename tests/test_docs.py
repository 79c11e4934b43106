"""The documentation lint runs clean (same check as the CI docs job)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_docs_links_and_paper_map_are_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "docs" / "check_docs.py")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "docs OK" in proc.stdout


def _check_docs():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "docs" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_dangling_markdown_reference_in_a_docstring_is_flagged(tmp_path):
    check_docs = _check_docs()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "real.md").write_text("# real\n")
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "mod.py").write_text(
        '"""Module docstring: see docs/real.md."""\n'
        "GLOB = '*.md'  # not prose: never flagged\n\n"
        "def f():\n"
        '    """Conventions.\n\n'
        "    Documented in DESIGN.md and docs/real.md.\n"
        '    """\n'
    )
    assert check_docs.check_docstring_files(tmp_path / "src", tmp_path) == [
        "src/pkg/mod.py:7: docstring names DESIGN.md, which does not exist"
    ]


def test_dangling_python_path_in_a_docstring_is_flagged(tmp_path):
    """A ``.py`` path rooted at a top-level directory must exist; one
    relative to the package (``sim/engine.py``) is not a path from the
    root and is never checked."""
    check_docs = _check_docs()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_real.py").write_text("")
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "mod.py").write_text(
        '"""Proven by ``tests/test_real.py::test_x``.\n\n'
        "Also by ``tests/test_gone.py``, next to ``sim/engine.py``.\n"
        '"""\n'
    )
    assert check_docs.check_docstring_files(tmp_path / "src", tmp_path) == [
        "src/pkg/mod.py:3: docstring names tests/test_gone.py, which does not exist"
    ]


def test_dangling_repro_reference_is_flagged(tmp_path):
    """A role target in a docstring and a backticked span in markdown
    must both resolve; a module, a class, a method and a module
    constant do, a deleted function and a missing attribute do not."""
    check_docs = _check_docs()
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "mod.py").write_text(
        '"""Sweeps: :meth:`~repro.api.spec.ExperimentSpec.sweep` and\n'
        ':class:`the spec <repro.api.spec.ExperimentSpec>` in\n'
        ':mod:`repro.api`; not :func:`repro.metrics.delay.cdf`."""\n'
    )
    doc = tmp_path / "guide.md"
    doc.write_text(
        "Read `repro.core.replay.REPLAY_MODES`.\n"
        "Gone: `repro.topology.simple.build_linear`, "
        "`repro.api.spec.ExperimentSpec.sweeps`.\n"
    )
    assert check_docs.check_references(tmp_path / "src", [doc], tmp_path) == [
        "src/pkg/mod.py:3: repro.metrics.delay.cdf does not resolve",
        "guide.md:2: repro.topology.simple.build_linear does not resolve",
        "guide.md:2: repro.api.spec.ExperimentSpec.sweeps does not resolve",
    ]


def _reach():
    import importlib.util

    spec = importlib.util.spec_from_file_location("reach", REPO / "docs" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return reach


def test_reach_map_reports_exactly_the_lines_not_run(tmp_path):
    """``docs/reach.py``'s arithmetic on a fixture: the branch not taken
    is unreached, module-level lines count, and a ``pragma: no cover``
    block is not executable.  (The full scan runs in the nightly job.)"""
    import importlib.util

    reach = _reach()
    package = tmp_path / "pkg"
    package.mkdir()
    fixture = package / "mod.py"
    fixture.write_text(
        '"""A fixture."""\n'
        "import os\n"
        "\n"
        "\n"
        "def sign(x):\n"
        "    if x < 0:\n"
        "        x = -x\n"
        "        return 'negative'\n"
        "    return 'positive'\n"
        "\n"
        "\n"
        "def where():  # pragma: no cover\n"
        "    return os.getcwd()\n"
    )
    module_spec = importlib.util.spec_from_file_location("mod", fixture)
    module = importlib.util.module_from_spec(module_spec)
    with reach.Tracer(package) as tracer:
        module_spec.loader.exec_module(module)
        assert module.sign(1) == "positive"
    assert reach.executable_lines(fixture) == {1, 2, 5, 6, 7, 8, 9}
    assert reach.report(package, tracer.hits) == [
        "mod.py: 2/7  7-8", "total: 2/7 executable lines unreached"]


def test_reach_map_runs_every_repro_verb_ci_runs():
    """The map's CLI leg is a hand-kept copy of the workflow's verbs: a
    verb CI starts running (or stops running) must change both."""
    import inspect
    import re

    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    in_ci = set(re.findall(r"python -m repro ([a-z-]+)", workflow))
    in_map = set(re.findall(r'verb\("([a-z-]+)"', inspect.getsource(_reach().run_cli)))
    assert in_ci == in_map


def test_a_documented_verb_the_cli_lacks_is_flagged(tmp_path):
    """An anchored ``repro X`` must name a verb or an experiment; a bare
    ``repro`` in prose is not anchored and is never checked."""
    doc = tmp_path / "guide.md"
    doc.write_text(
        "Run `repro lint src/`, then `repro run table1`.\n"
        "```console\n$ repro frobnicate --all\n"
        "$ PYTHONPATH=src python -m repro table1 --rows 0\n```\n"
        "The repro gremlin is not a verb.\n"
    )
    ghosts = [problem for problem in _check_docs().check_cli_verbs([doc])
              if "is documented" in problem]
    assert ghosts == [
        "'repro frobnicate' is documented, but 'frobnicate' is no CLI verb "
        "or experiment",
        "'repro lint' is documented, but 'lint' is no CLI verb or experiment",
    ]
