"""Fixture-based rule tests: bad snippet → exact finding, good → clean.

Each case lints an in-memory snippet under a synthetic path whose
directory segments put it in the scope under test (``sim/x.py`` for the
determinism family, ``cluster/x.py`` for the transaction rule),
via :func:`repro.lintkit.lint_file`'s ``source`` override.
"""

from __future__ import annotations

import pytest

from repro.lintkit import lint_file, rule_ids, rules_for_path
from repro.lintkit.rules import load_rules


def findings_for(path: str, source: str) -> list[tuple[str, int]]:
    """(rule, line) pairs a snippet produces, suppressed ones excluded."""
    return [(f.rule, f.line) for f in lint_file(path, source=source)
            if not f.suppressed]


# --- DET-RANDOM --------------------------------------------------------------

def test_module_level_random_flagged():
    src = "import random\nx = random.random()\n"
    assert findings_for("sim/bad.py", src) == [("DET-RANDOM", 2)]


def test_unseeded_random_constructor_flagged():
    src = "import random\nrng = random.Random()\n"
    assert findings_for("sim/bad.py", src) == [("DET-RANDOM", 2)]


def test_seeded_injected_rng_clean():
    src = (
        "import random\n"
        "def f(rng: random.Random):\n"
        "    return rng.random()\n"
        "rng = random.Random(7)\n"
    )
    assert findings_for("sim/good.py", src) == []


def test_numpy_legacy_global_flagged_aliased_import():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert findings_for("sim/bad.py", src) == [("DET-RANDOM", 2)]


def test_numpy_seeded_default_rng_clean():
    src = "import numpy as np\nrng = np.random.default_rng(3)\n"
    assert findings_for("sim/good.py", src) == []


def test_random_outside_scope_not_flagged():
    src = "import random\nx = random.random()\n"
    assert findings_for("analysis/fine.py", src) == []


# --- DET-WALLCLOCK -----------------------------------------------------------

def test_time_time_flagged_in_sim():
    src = "import time\nnow = time.time()\n"
    assert findings_for("sim/bad.py", src) == [("DET-WALLCLOCK", 2)]


def test_perf_counter_from_import_flagged():
    src = "from time import perf_counter\nt = perf_counter()\n"
    assert findings_for("core/bad.py", src) == [("DET-WALLCLOCK", 2)]


def test_wallclock_fine_in_cluster():
    # Leases and heartbeats are wall-clock by design.
    src = "import time\nnow = time.time()\n"
    assert findings_for("cluster/queue.py", src) == []


# --- DET-SET-ITER ------------------------------------------------------------

def test_for_over_set_literal_flagged():
    src = "for x in {1, 2, 3}:\n    print(x)\n"
    assert findings_for("sim/bad.py", src) == [("DET-SET-ITER", 1)]


def test_list_of_set_call_flagged():
    src = "items = list(set(data))\n"
    assert findings_for("sim/bad.py", src) == [("DET-SET-ITER", 1)]


def test_sorted_set_clean():
    src = "for x in sorted({1, 2, 3}):\n    print(x)\n"
    assert findings_for("sim/good.py", src) == []


# --- DET-ID-ORDER / DET-OBJECT-HASH -----------------------------------------

def test_builtin_id_flagged():
    src = "def key(pkt):\n    return id(pkt)\n"
    assert findings_for("schedulers/bad.py", src) == [("DET-ID-ORDER", 2)]


def test_builtin_hash_flagged():
    src = "def key(pkt):\n    return hash(pkt)\n"
    assert findings_for("sim/bad.py", src) == [("DET-OBJECT-HASH", 2)]


def test_imported_id_name_not_flagged():
    # A local `id` imported from elsewhere is not the builtin.
    src = "from mypkg import id\nx = id(3)\n"
    assert findings_for("sim/good.py", src) == []


# --- SQL-TXN -----------------------------------------------------------------

def test_bare_update_flagged():
    src = (
        "def f(conn):\n"
        "    conn.execute('UPDATE jobs SET x = 1')\n"
    )
    assert findings_for("cluster/bad.py", src) == [("SQL-TXN", 2)]


def test_update_after_begin_immediate_clean():
    src = (
        "def f(conn):\n"
        "    conn.execute('BEGIN IMMEDIATE')\n"
        "    conn.execute('UPDATE jobs SET x = 1')\n"
        "    conn.execute('COMMIT')\n"
    )
    assert findings_for("cluster/good.py", src) == []


def test_mutation_before_begin_flagged():
    src = (
        "def f(conn):\n"
        "    conn.execute('DELETE FROM leases')\n"
        "    conn.execute('BEGIN IMMEDIATE')\n"
        "    conn.execute('COMMIT')\n"
    )
    assert findings_for("cluster/bad.py", src) == [("SQL-TXN", 2)]


def test_select_needs_no_transaction():
    src = (
        "def f(conn):\n"
        "    return conn.execute('SELECT * FROM jobs').fetchall()\n"
    )
    assert findings_for("cluster/good.py", src) == []


def test_sql_rule_silent_outside_cluster():
    src = "def f(conn):\n    conn.execute('UPDATE t SET x = 1')\n"
    assert findings_for("sim/fine.py", src) == []


# --- registry / scoping ------------------------------------------------------

def test_rule_ids_are_stable_and_sorted():
    ids = rule_ids()
    assert list(ids) == sorted(ids)
    assert {"DET-RANDOM", "DET-WALLCLOCK", "DET-SET-ITER", "SQL-TXN",
            "ALW-REASON", "ALW-UNKNOWN", "ALW-UNUSED", "LNT-PARSE"} <= set(ids)


def test_every_rule_documents_its_invariant():
    for rule in load_rules().values():
        assert rule.summary, rule.id
        assert rule.invariant, rule.id


def test_scoping_sim_stricter_than_cli():
    sim_rules = {r.id for r in rules_for_path("src/repro/sim/engine.py")}
    cli_rules = {r.id for r in rules_for_path("src/repro/cli.py")}
    assert "DET-WALLCLOCK" in sim_rules
    assert "DET-WALLCLOCK" not in cli_rules
    assert cli_rules < sim_rules


def test_cluster_scope_gets_sql_not_wallclock():
    cluster = {r.id for r in rules_for_path("src/repro/cluster/queue.py")}
    assert "SQL-TXN" in cluster
    assert "DET-RANDOM" in cluster
    assert "DET-WALLCLOCK" not in cluster


def test_duplicate_rule_id_rejected():
    from repro.lintkit.rules import register_rule

    with pytest.raises(ValueError, match="already registered"):
        register_rule("DET-RANDOM", summary="dup", invariant="dup",
                      scopes=("*",))(lambda ctx: iter(()))
