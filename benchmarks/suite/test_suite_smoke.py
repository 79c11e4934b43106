"""Smoke test of the benchmark suite (collected by the tier-1 command).

Drives ``run.py --smoke`` -- tiny simulated sizes, two rounds -- through
every code path a real run takes: fresh child per repeat, golden check,
traced pass, probes, the driver's JSON line and ``compare``.  It checks
plumbing and the contract with BENCHMARK.json, never a speed.
"""

from __future__ import annotations

import ast
import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
RUN = [sys.executable, str(SUITE / "run.py")]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run, split over two processes, plus a doctored-golden run.

    The three run side by side: nothing here reads a timing, and the
    tier-1 suite should not wait on the benchmark's process start-ups
    one after another.
    """
    tmp = tmp_path_factory.mktemp("suite")
    golden = json.loads((SUITE / "golden.json").read_text())
    row = golden["smoke"]["results"]["replay-i2"]["1"]["table1/seed=1"]["rows"][0]
    row[1] += 1  # one packet more than was simulated
    doctored = tmp / "golden.json"
    doctored.write_text(json.dumps(golden))

    def start(name: str, *extra: str) -> subprocess.Popen:
        return subprocess.Popen(
            [*RUN, "--smoke", "--rounds", "2", "--scratch", str(tmp / name),
             *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp)

    procs = {
        "a": start("a", "--out", str(tmp / "a.json"),
                   *(x for w in WORKLOADS[:3] for x in ("--workload", w))),
        "b": start("b", "--out", str(tmp / "b.json"),
                   *(x for w in WORKLOADS[3:] for x in ("--workload", w))),
        "bad": start("bad", "--workload", "replay-i2", "--trace", "0",
                     "--golden", str(doctored)),
    }
    outputs = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr[-2000:]
        outputs[name] = stdout
    return {"tmp": tmp, "stdout": outputs,
            "docs": [json.loads((tmp / f"{n}.json").read_text()) for n in "ab"]}


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/suite"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert unit.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert unit.match(metric["unit"])
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_run_reports_every_declared_name(smoke):
    metrics: dict[str, dict] = {}
    for stdout in (smoke["stdout"]["a"], smoke["stdout"]["b"]):
        line = _result_line(stdout)
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        metrics.update(line["metrics"])
    declared = {m["name"]: m["unit"]
                for m in (*MANIFEST["end_to_end"], *MANIFEST["per_layer"])}
    for workload in WORKLOADS:
        for name, unit in declared.items():
            entry = metrics[f"{workload}:{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))
    assert len(metrics) == len(WORKLOADS) * len(declared)
    for doc in smoke["docs"]:
        for entry in doc["workloads"].values():
            assert entry["golden"] == "pinned" and entry["fail_share"] == 0
            assert all(s["n"] == 2 for s in entry["end_to_end"].values())


def test_layer_calls_repeat_between_traced_runs(smoke):
    # The traced pass profiles every workload twice and counts any layer
    # whose call count differs as a failed leg.
    for doc in smoke["docs"]:
        for workload, entry in doc["workloads"].items():
            traced = entry["traced"]
            assert traced["failed"] == 0, (workload, traced["reasons"])
            calls = {k: v for k, v in traced["per_layer"].items()
                     if k.endswith(".calls")}
            assert calls and all(isinstance(v, int) for v in calls.values())
            assert calls["sim.engine.calls"] > 0


def test_doctored_golden_fails_the_leg(smoke):
    line = _result_line(smoke["stdout"]["bad"])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 2  # one leg, two rounds
    assert "fail_share 1" in smoke["stdout"]["bad"]


def test_compare_flags_a_regression_and_a_failure(smoke):
    tmp = smoke["tmp"]
    base = smoke["docs"][0]

    def compare(other: dict) -> subprocess.CompletedProcess:
        path = tmp / "other.json"
        path.write_text(json.dumps(other))
        return subprocess.run([*RUN, "compare", str(tmp / "a.json"), str(path)],
                              capture_output=True, text=True)

    same = compare(base)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout.split("gated rows")[0]

    slower = copy.deepcopy(base)
    stats = slower["workloads"]["replay-i2"]["end_to_end"]["wall_norm_s"]
    stats["runs"] = [v * 10 for v in stats["runs"]]
    for key in ("median", "q1", "q3", "iqr"):
        stats[key] *= 10
    worse = compare(slower)
    assert worse.returncode == 1
    assert re.search(r"replay-i2\s+wall_norm_s.*worse", worse.stdout)

    failing = copy.deepcopy(base)
    failing["workloads"]["fct-tcp"]["fail_share"] = 0.5
    assert compare(failing).returncode == 1


def _imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_yardstick_is_independent_and_perf_harness_is_not_imported():
    yardstick = _imports(SUITE / "yardstick.py")
    assert not any(m == "repro" or m.startswith("repro.") for m in yardstick)
    for path in SUITE.glob("*.py"):
        for module in _imports(path):
            assert not module.startswith("repro.experiments.perf"), path
            assert not module.startswith("benchmarks.perf"), path
