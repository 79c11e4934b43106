"""Runner semantics: suppressions, walking, JSON, CLI, meta.

The meta-test at the bottom is the PR's standing guarantee: ``repro
lint src/`` is clean at HEAD, so any commit that introduces an
unsuppressed finding fails tier-1 CI, not just the dedicated lint job.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.lintkit import JSON_SCHEMA_VERSION, lint_file, lint_paths

REPO = Path(__file__).resolve().parents[2]

BAD_SIM = "import random\nx = random.random()\n"


# --- suppression semantics ---------------------------------------------------

def test_reasoned_allow_suppresses():
    src = (
        "import random\n"
        "x = random.random()  # repro: allow(DET-RANDOM) fixture needs it\n"
    )
    findings = lint_file("sim/f.py", source=src)
    assert [(f.rule, f.suppressed, f.reason) for f in findings] == [
        ("DET-RANDOM", True, "fixture needs it"),
    ]


def test_allow_without_reason_rejected():
    src = "import random\nx = random.random()  # repro: allow(DET-RANDOM)\n"
    rules = {f.rule for f in lint_file("sim/f.py", source=src)
             if not f.suppressed}
    # The bare allow does not suppress, and is itself a finding.
    assert rules == {"DET-RANDOM", "ALW-REASON"}


def test_allow_unknown_rule_rejected():
    src = "x = 1  # repro: allow(NOPE-42) because reasons\n"
    rules = {f.rule for f in lint_file("sim/f.py", source=src)}
    assert rules == {"ALW-UNKNOWN"}


def test_allow_matching_nothing_is_stale():
    src = "x = 1  # repro: allow(DET-RANDOM) nothing here\n"
    rules = {f.rule for f in lint_file("sim/f.py", source=src)}
    assert rules == {"ALW-UNUSED"}


def test_allow_on_wrong_line_does_not_suppress():
    src = (
        "import random\n"
        "# repro: allow(DET-RANDOM) wrong line\n"
        "x = random.random()\n"
    )
    unsuppressed = {f.rule for f in lint_file("sim/f.py", source=src)
                    if not f.suppressed}
    assert "DET-RANDOM" in unsuppressed
    assert "ALW-UNUSED" in unsuppressed


def test_comma_separated_allow_covers_both_rules():
    src = (
        "import random, time\n"
        "x = [random.random(), time.time()]  "
        "# repro: allow(DET-RANDOM, DET-WALLCLOCK) fixture exercises both\n"
    )
    findings = lint_file("sim/f.py", source=src)
    assert all(f.suppressed for f in findings)
    assert {f.rule for f in findings} == {"DET-RANDOM", "DET-WALLCLOCK"}


def test_allow_inside_string_literal_is_inert():
    # Only real COMMENT tokens count — a string containing the syntax
    # neither suppresses nor trips the ALW rules.
    src = "import random\nx = random.random()\ns = '# repro: allow(DET-RANDOM) nope'\n"
    findings = lint_file("sim/f.py", source=src)
    assert [(f.rule, f.suppressed) for f in findings] == [("DET-RANDOM", False)]


def test_alw_rules_cannot_be_suppressed():
    src = "x = 1  # repro: allow(ALW-UNUSED) self-vouching\n"
    findings = lint_file("sim/f.py", source=src)
    assert [(f.rule, f.suppressed) for f in findings] == [("ALW-UNUSED", False)]


def test_syntax_error_becomes_lnt_parse():
    findings = lint_file("sim/broken.py", source="def f(:\n")
    assert [f.rule for f in findings] == ["LNT-PARSE"]


# --- path walking --------------------------------------------------------------

def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "bad.py").write_text(BAD_SIM)
    (tmp_path / "sim" / "__pycache__").mkdir()
    (tmp_path / "sim" / "__pycache__" / "junk.py").write_text(BAD_SIM)
    report = lint_paths([tmp_path])
    assert report.files_checked == 1
    assert [f.rule for f in report.unsuppressed] == ["DET-RANDOM"]


def test_lint_paths_missing_path_is_config_error(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        lint_paths([tmp_path / "nope"])


# --- JSON schema -------------------------------------------------------------

def test_report_json_schema(tmp_path):
    bad = tmp_path / "sim" / "bad.py"
    bad.parent.mkdir()
    bad.write_text(BAD_SIM)
    doc = lint_paths([bad]).to_dict()
    assert doc["version"] == JSON_SCHEMA_VERSION
    assert doc["files_checked"] == 1
    assert doc["clean"] is False
    assert doc["unsuppressed"] == 1
    assert doc["suppressed"] == 0
    (finding,) = doc["findings"]
    assert set(finding) == {"path", "line", "col", "rule", "message",
                            "suppressed", "reason"}
    assert finding["rule"] == "DET-RANDOM"
    assert finding["line"] == 2


# --- CLI ---------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "sim" / "bad.py"
    bad.parent.mkdir()
    bad.write_text(BAD_SIM)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "DET-RANDOM" in out
    bad.write_text("x = 1\n")
    assert main(["lint", str(bad)]) == 0
    assert main(["lint", str(tmp_path / "missing.py")]) == 2


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "cluster" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("def f(c):\n    c.execute('UPDATE t SET x = 1')\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == JSON_SCHEMA_VERSION
    assert doc["findings"][0]["rule"] == "SQL-TXN"


def test_cli_has_no_second_waiver_layer(tmp_path, capsys):
    """A finding is fixed or ``allow()``-ed with a reason on its line;
    there is no baseline file that waives it from somewhere else."""
    bad = tmp_path / "sim" / "bad.py"
    bad.parent.mkdir()
    bad.write_text(BAD_SIM)
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(bad), "--baseline", str(tmp_path / "b.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --baseline" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET-RANDOM" in out
    assert "SQL-TXN" in out
    assert main(["lint", "--list-rules", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ids = [rule["id"] for rule in doc["rules"]]
    assert ids == sorted(ids)
    assert "PERF-SLOTS" in ids


# --- the meta-test: this repo lints clean at HEAD ----------------------------

def test_repo_src_is_lint_clean(capsys):
    assert main(["lint", str(REPO / "src")]) == 0, capsys.readouterr().out


def test_repo_cluster_tests_are_lint_clean(capsys):
    assert main(["lint", str(REPO / "tests" / "cluster")]) == 0, \
        capsys.readouterr().out
