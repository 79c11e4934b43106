"""The determinism rules: an AST check over ``src/repro`` and ``tests/cluster``.

Byte-identical artifacts across runs and executors rest on coding rules
no behavioural test watches all the time (``docs/determinism.md`` is
the catalogue).  Each rule is a syntactic check over one module, applied
where a file's directory names put it in the rule's scope:

* ``DET-RANDOM``: a ``random.*`` / legacy ``numpy.random.*`` call, or a
  seeded constructor called with no seed (sim scope and ``cluster``);
* ``DET-SET-ITER``: a set iterated without ``sorted()`` (sim scope and
  ``cluster``);
* ``DET-WALLCLOCK``: a wall-clock read (sim scope; leases and
  heartbeats in ``cluster`` are wall-clock by design);
* ``DET-ID-ORDER`` / ``DET-OBJECT-HASH``: builtin ``id()`` / ``hash()``
  (sim scope);
* ``SQL-TXN``: a mutating ``execute`` with no ``BEGIN`` before it in the
  same function (``cluster``).

A site the rules flag on purpose is an entry of :data:`ALLOWED`, keyed
by file, enclosing qualname and rule, with its count and its reason.
The tree's count of findings per key must equal :data:`ALLOWED`
exactly, so a new violation fails, and so does an entry whose site is
gone.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path, PurePosixPath

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Directories whose code produces the bytes the byte-identity suite compares.
SIM = frozenset({"sim", "core", "schedulers", "experiments", "workload",
                 "topology", "transport", "theory", "metrics", "scenarios"})
CLUSTER = frozenset({"cluster"})

#: Rule id -> the directory names it applies under.
SCOPES = {
    "DET-RANDOM": SIM | CLUSTER,
    "DET-SET-ITER": SIM | CLUSTER,
    "DET-WALLCLOCK": SIM,
    "DET-ID-ORDER": SIM,
    "DET-OBJECT-HASH": SIM,
    "SQL-TXN": CLUSTER,
}

#: (file, enclosing qualname, rule) -> (findings, reason).
ALLOWED = {
    ("src/repro/sim/engine.py", "Engine._drain", "DET-WALLCLOCK"):
        (2, "ENGINE_PERF accounting, never feeds simulation state"),
    ("src/repro/sim/resume.py", "_anchor_walk", "DET-ID-ORDER"):
        (1, "membership key only; numbering comes from walk order"),
    ("src/repro/sim/resume.py", "_AnchorPickler.reducer_override",
     "DET-ID-ORDER"):
        (1, "identity lookup only; the index is walk order"),
    ("src/repro/sim/resume.py", "ResumeSession.run_phase", "DET-ID-ORDER"):
        (1, "identity lookup only; the index is walk order"),
    ("src/repro/cluster/queue.py", "JobQueue._reclaim_expired", "SQL-TXN"):
        (2, "the caller holds BEGIN IMMEDIATE, per the method's contract"),
}

_SEEDED = ("random.Random", "numpy.random.default_rng")
_NUMPY_OK = ("numpy.random.default_rng", "numpy.random.Generator",
             "numpy.random.SeedSequence")
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today",
})
_EXECUTE = ("execute", "executemany", "executescript")
_MUTATING = ("UPDATE", "INSERT", "DELETE", "REPLACE")


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin: ``np -> numpy``, ``pc -> time.perf_counter``."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _is_set(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset"))


def _sql_head(call: ast.Call) -> str | None:
    """The first SQL keyword of an ``execute`` call's constant text."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr in _EXECUTE and call.args):
        return None
    arg = call.args[0]
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        words = arg.value.split(None, 1)
        return words[0].upper() if words else None
    return None


def _shallow(fn: ast.AST):
    """A function's nodes, not descending into nested defs, classes or lambdas."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


class _Checker(ast.NodeVisitor):
    """Every rule over one module; ``found`` holds ``(qualname, rule, line)``."""

    def __init__(self, tree: ast.Module) -> None:
        self.imports = _imports(tree)
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []

    def flag(self, rule: str, node: ast.AST) -> None:
        self.found.append((".".join(self.scope) or "<module>", rule, node.lineno))

    def dotted(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        begun = False
        calls = [n for n in _shallow(node) if isinstance(n, ast.Call)]
        for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
            head = _sql_head(call)
            begun = begun or head == "BEGIN"
            if head in _MUTATING and not begun:
                self.flag("SQL-TXN", call)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_For(self, node: ast.For) -> None:
        if _is_set(node.iter):
            self.flag("DET-SET-ITER", node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if _is_set(node.iter):
            self.flag("DET-SET-ITER", node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = self.dotted(node.func)
        if name in _SEEDED:
            if not node.args and not node.keywords:
                self.flag("DET-RANDOM", node)
        elif name and (name.startswith("random.") or (
                name.startswith("numpy.random.") and name not in _NUMPY_OK)):
            self.flag("DET-RANDOM", node)
        elif name in _WALLCLOCK:
            self.flag("DET-WALLCLOCK", node)
        elif name == "id":
            self.flag("DET-ID-ORDER", node)
        elif name == "hash":
            self.flag("DET-OBJECT-HASH", node)
        elif name in ("list", "tuple", "enumerate") and node.args \
                and _is_set(node.args[0]):
            self.flag("DET-SET-ITER", node.args[0])
        self.generic_visit(node)


def findings(path: str, source: str) -> list[tuple[str, str, int]]:
    """``(qualname, rule, line)`` for each violation of a rule in scope at ``path``."""
    tree = ast.parse(source, path)
    checker = _Checker(tree)
    checker.visit(tree)
    parts = set(PurePosixPath(path).parts)
    return [f for f in checker.found if parts & SCOPES[f[1]]]


def test_the_tree_breaks_the_rules_only_where_allowed():
    where = defaultdict(list)
    for root in (REPO / "src" / "repro", REPO / "tests" / "cluster"):
        for file in sorted(root.rglob("*.py")):
            path = file.relative_to(REPO).as_posix()
            for qualname, rule, line in findings(path, file.read_text()):
                where[path, qualname, rule].append(line)
    found = {key: len(lines) for key, lines in where.items()}
    allowed = {key: count for key, (count, _reason) in ALLOWED.items()}
    extra = {key: lines for key, lines in where.items()
             if len(lines) != allowed.get(key)}
    assert found == allowed, (
        f"findings at {extra}; allowed but absent: "
        f"{sorted(allowed.keys() - found.keys())}")
    assert all(reason for _count, reason in ALLOWED.values())


@pytest.mark.parametrize("path, source, rule", [
    # a module-level draw in a sim path
    ("sim/bad.py", "import random\nx = random.random()\n", "DET-RANDOM"),
    ("sim/bad.py", "import random\nrng = random.Random()\n", "DET-RANDOM"),
    ("sim/bad.py", "import numpy as np\nx = np.random.rand(3)\n", "DET-RANDOM"),
    ("schedulers/random.py",
     "import random\n"
     "class RandomScheduler:\n"
     "    def pop(self, now):\n"
     "        return self._queue.pop(random.randrange(len(self._queue)))\n",
     "DET-RANDOM"),
    ("sim/network.py",
     "def _build_tree(upstream):\n"
     "    for u in set(upstream):\n"
     "        yield u\n",
     "DET-SET-ITER"),
    ("sim/bad.py", "items = list(set(data))\n", "DET-SET-ITER"),
    ("sim/bad.py", "firsts = [x for x in {1, 2}]\n", "DET-SET-ITER"),
    ("sim/network.py",
     "def _build_tree(upstream):\n"
     "    return sorted(upstream, key=lambda u: hash(u))\n",
     "DET-OBJECT-HASH"),
    ("sim/network.py",
     "class Network:\n"
     "    def hosts(self):\n"
     "        return sorted(self.nodes.values(), key=lambda n: id(n))\n",
     "DET-ID-ORDER"),
    ("schedulers/lstf.py",
     "import time\n"
     "class LstfScheduler:\n"
     "    def pop(self, now):\n"
     "        packet = self._queue.pop()\n"
     "        packet.slack -= now - packet.enqueue_time + time.time() % 1e-3\n"
     "        return packet\n",
     "DET-WALLCLOCK"),
    ("core/heuristics.py",
     "import time\n"
     "class FlowSizeSlack:\n"
     "    def assign(self, packet, flow, now):\n"
     "        packet.slack = packet.flow_size * self.d + time.time() % 1e-6\n",
     "DET-WALLCLOCK"),
    ("core/bad.py", "from time import perf_counter\nt = perf_counter()\n",
     "DET-WALLCLOCK"),
    ("cluster/bad.py",
     "def f(conn):\n    conn.execute('UPDATE jobs SET x = 1')\n", "SQL-TXN"),
    ("cluster/bad.py",
     "def f(conn):\n"
     "    conn.execute(f'DELETE FROM leases WHERE id = {i}')\n"
     "    conn.execute('BEGIN IMMEDIATE')\n",
     "SQL-TXN"),
    # import spellings the import table resolves
    ("workload/bad.py", "from random import shuffle\nshuffle(flows)\n",
     "DET-RANDOM"),
    ("topology/bad.py",
     "from numpy import random as npr\nx = npr.permutation(4)\n", "DET-RANDOM"),
    ("sim/bad.py", "import numpy as np\nrng = np.random.default_rng()\n",
     "DET-RANDOM"),
    ("experiments/bad.py", "import datetime\nstamp = datetime.datetime.now()\n",
     "DET-WALLCLOCK"),
    ("metrics/bad.py", "from datetime import date\nday = date.today()\n",
     "DET-WALLCLOCK"),
    ("transport/bad.py", "import time as t\nstart = t.monotonic_ns()\n",
     "DET-WALLCLOCK"),
    # every iteration site, and the cluster half of the shared rules
    ("sim/bad.py", "for x in {1, 2, 3}:\n    print(x)\n", "DET-SET-ITER"),
    ("sim/bad.py", "for i, x in enumerate(frozenset(xs)):\n    print(i, x)\n",
     "DET-SET-ITER"),
    ("cluster/worker.py", "import random\nwait = random.uniform(0, 1)\n",
     "DET-RANDOM"),
    ("cluster/bad.py", "for job in frozenset(jobs):\n    run(job)\n",
     "DET-SET-ITER"),
    ("tests/cluster/test_stress.py", "import random\nrandom.seed(1)\n",
     "DET-RANDOM"),
    # SQL-TXN: each execute method, any case, and a nested def's own BEGIN
    ("cluster/bad.py",
     "def f(conn, rows):\n"
     "    conn.executemany('INSERT INTO jobs VALUES (?)', rows)\n",
     "SQL-TXN"),
    ("cluster/bad.py",
     "async def f(conn):\n    await conn.execute('delete from leases')\n",
     "SQL-TXN"),
    ("cluster/bad.py",
     "def f(conn):\n"
     "    conn.execute('BEGIN IMMEDIATE')\n"
     "    def g():\n"
     "        conn.execute('REPLACE INTO t VALUES (1)')\n"
     "    return g\n",
     "SQL-TXN"),
])
def test_a_planted_violation_is_flagged(path, source, rule):
    assert [found_rule for _q, found_rule, _line in findings(path, source)] == [rule]


@pytest.mark.parametrize("path, source", [
    ("sim/good.py", "import random\nrng = random.Random(7)\nx = rng.random()\n"),
    ("sim/good.py", "import numpy as np\nrng = np.random.default_rng(3)\n"),
    ("sim/good.py", "for x in sorted(set(data)):\n    print(x)\n"),
    ("cluster/queue.py", "from time import perf_counter\nt = perf_counter()\n"),
    ("analysis/fine.py", "import random\nx = random.random()\n"),
    ("sim/good.py", "from mypkg import id\nx = id(3)\n"),
    ("cluster/good.py",
     "def f(conn):\n"
     "    conn.execute('BEGIN IMMEDIATE')\n"
     "    conn.execute('UPDATE jobs SET x = 1')\n"
     "    return conn.execute('SELECT * FROM jobs').fetchall()\n"),
    ("sim/fine.py", "def f(conn):\n    conn.execute('UPDATE t SET x = 1')\n"),
    # leases and heartbeats are wall-clock by design
    ("cluster/queue.py", "import time\nnow = time.time()\n"),
    # modules outside every scope, and a directory name that only starts like one
    ("src/repro/cli.py", "import time\nstarted = time.time()\n"),
    ("simulator/x.py", "import random\nx = random.random()\n"),
    # an injected generator is not a module-level draw
    ("sim/good.py",
     "import random\ndef f(rng: random.Random):\n    return rng.random()\n"),
    ("sim/good.py", "import numpy as np\nseeds = np.random.SeedSequence(5)\n"),
    ("sim/good.py", "for x in sorted({1, 2, 3}):\n    print(x)\n"),
    ("sim/good.py", "import hashlib\nkey = hashlib.sha256(b'flow').hexdigest()\n"),
    ("cluster/good.py",
     "def f(conn):\n    return conn.execute('SELECT * FROM jobs').fetchall()\n"),
    ("cluster/good.py",
     "def f(conn):\n"
     "    conn.execute('BEGIN')\n"
     "    conn.execute('DELETE FROM leases')\n"
     "    conn.execute('COMMIT')\n"),
])
def test_a_clean_source_is_not_flagged(path, source):
    assert findings(path, source) == []


def test_a_finding_is_keyed_by_its_enclosing_qualname_and_line():
    source = (
        "import time\n"
        "t0 = time.time()\n"
        "class Engine:\n"
        "    def _drain(self):\n"
        "        def tick():\n"
        "            return time.time()\n"
        "        return tick\n"
    )
    assert findings("sim/engine.py", source) == [
        ("<module>", "DET-WALLCLOCK", 2),
        ("Engine._drain.tick", "DET-WALLCLOCK", 6),
    ]


def test_a_file_that_does_not_parse_fails_the_check():
    with pytest.raises(SyntaxError):
        findings("sim/broken.py", "def f(:\n")


def test_every_allowed_site_is_a_rule_in_scope_with_a_reason():
    for (path, qualname, rule), (count, reason) in ALLOWED.items():
        assert set(PurePosixPath(path).parts) & SCOPES[rule], (path, rule)
        assert qualname and count > 0 and reason, (path, qualname, rule)


def test_the_rule_table_documents_exactly_these_rules():
    """``docs/determinism.md``'s rule column names each rule here, and no other."""
    table = (REPO / "docs" / "determinism.md").read_text()
    documented = set(re.findall(r"^\|\s*`([A-Z]+(?:-[A-Z]+)+)`\s*\|", table, re.M))
    assert documented == set(SCOPES)
