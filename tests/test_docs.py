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
