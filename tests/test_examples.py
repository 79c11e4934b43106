"""Smoke tests: the example scripts run and print their expected shapes.

Only the fastest examples run in-process here; the others are imported
only, and CI's "Examples" step runs them end to end outside tier-1's time
budget.  This guards against the examples drifting out of sync with the
library API.  Every example, run or not,
has each name it imports from ``repro`` resolved against the library.
"""

from __future__ import annotations

import ast
import importlib
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run("quickstart.py", capsys)
    # part 1: the declarative front door
    assert "Table 1" in out
    assert "round-trips losslessly: True" in out
    # part 2: the record/replay machinery
    assert "recorded" in out
    assert "replay[omniscient]" in out
    assert "PERFECT" in out


def test_theory_counterexamples(capsys):
    out = _run("theory_counterexamples.py", capsys)
    assert "all 6 priority orderings fail? True" in out
    assert "LSTF replay perfect?           True" in out  # figure 6
    assert "omniscient" in out


def test_cluster_sweep(capsys):
    out = _run("cluster_sweep.py", capsys)
    assert "submitted jobs [1, 2, 3, 4]" in out
    assert "4 done, 0 failed" in out
    assert "byte-for-byte: True" in out


@pytest.mark.parametrize(
    "name",
    ["replay_experiment.py", "fct_comparison.py", "tail_latency.py",
     "fairness_convergence.py"],
)
def test_other_examples_importable(name):
    """The remaining examples at least parse and expose a main()."""
    source = (EXAMPLES / name).read_text()
    code = compile(source, name, "exec")
    namespace: dict = {"__name__": "not_main"}
    exec(code, namespace)  # definitions only; main() guarded
    assert callable(namespace["main"])


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` per ``from repro… import name`` in ``path``, and
    ``(module, None)`` per ``import repro…``, wherever they appear."""
    def ours(module: str | None) -> bool:
        return (module or "").split(".")[0] == "repro"

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and ours(node.module):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if ours(alias.name)]
    return found


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name)
def test_every_repro_import_in_an_example_resolves(path):
    """An export removed from the library cannot hide in an example that
    no test runs."""
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module, name in imports:
        target = importlib.import_module(module)
        assert name is None or hasattr(target, name), f"{path.name}: {module}.{name}"
