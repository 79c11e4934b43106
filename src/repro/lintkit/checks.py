"""The concrete rules: the DET-* and SQL-* checkers.

Every rule here guards bytes: a DET-* violation in simulation-facing
code makes an artifact depend on something other than its spec, and a
SQL-* violation lets two workers claim or report the same job.  Each
checker is registered on import via
:func:`~repro.lintkit.rules.register_rule` and reads one
:class:`~repro.lintkit.rules.ModuleContext`.  All checks are syntactic —
no type inference — which is the deliberate trade: a rule that needs
whole-program analysis to fire would be too slow for tier-1 CI and too
opaque to suppress honestly.  Where syntax cannot see intent (the
``ENGINE_PERF`` wall-time accounting, a helper that documents "caller
holds the transaction"), the escape hatch is a per-line
``# repro: allow(RULE-ID) reason`` whose reason string is itself
enforced (``ALW-REASON``).

The ALW-* rules about the suppression machinery live in
:mod:`repro.lintkit.runner`, which is the layer that sees the comments.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.config import CLUSTER_SCOPE, SIM_SCOPE
from repro.lintkit.findings import Finding
from repro.lintkit.rules import ModuleContext, register_rule, shallow_body

__all__: list[str] = []

# --- DET-*: determinism in simulation-facing code ---------------------------

#: Seeded-constructor entry points that are the *approved* way to get
#: randomness — everything else under these modules is a violation.
_SEEDED_CTORS = ("random.Random", "numpy.random.default_rng")
_NUMPY_RANDOM_OK = (
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
)


@register_rule(
    "DET-RANDOM",
    summary="module-level RNG call; inject a seeded random.Random instead",
    invariant="every random draw comes from an injected, seeded generator",
    scopes=SIM_SCOPE + CLUSTER_SCOPE,
)
def check_det_random(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``random.*`` / ``np.random.*`` calls and unseeded constructors.

    ``random.Random(seed)`` and ``np.random.default_rng(seed)`` are the
    approved entry points (the pattern the ``random`` scheduler and the
    workload generators use); called with *no* seed they are still
    nondeterministic across runs and are flagged too.
    """
    for call in ctx.calls():
        name = ctx.dotted(call.func)
        if name is None:
            continue
        if name in _SEEDED_CTORS:
            if not call.args and not call.keywords:
                yield ctx.finding(
                    call, "DET-RANDOM",
                    f"unseeded {name}() — pass an explicit seed so runs "
                    f"are reproducible",
                )
        elif name.startswith("random."):
            yield ctx.finding(
                call, "DET-RANDOM",
                f"module-level {name}() draws from the process-global RNG "
                f"stream — inject a seeded random.Random instead",
            )
        elif name.startswith("numpy.random.") and name not in _NUMPY_RANDOM_OK:
            yield ctx.finding(
                call, "DET-RANDOM",
                f"legacy global-state {name}() — use a seeded "
                f"numpy.random.default_rng(seed) generator instead",
            )


#: Wall-clock reads that leak host timing into simulation-facing code.
_WALLCLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
})


@register_rule(
    "DET-WALLCLOCK",
    summary="wall-clock read in simulation-facing code",
    invariant="simulated behaviour depends only on the virtual clock",
    scopes=SIM_SCOPE,
)
def check_det_wallclock(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``time.time()`` / ``perf_counter()`` / ``datetime.now()`` calls.

    The only legitimate wall-clock reads near the simulator are the two
    of the ``ENGINE_PERF`` throughput accounting in ``sim/engine.py`` —
    both carry reasoned ``allow`` comments, which is exactly the
    visibility this rule wants.
    """
    for call in ctx.calls():
        name = ctx.dotted(call.func)
        if name in _WALLCLOCK:
            yield ctx.finding(
                call, "DET-WALLCLOCK",
                f"{name}() reads the host clock — simulation-facing code "
                f"must depend only on engine.now",
            )


def _is_set_expr(node: ast.AST) -> bool:
    """A set literal, set comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _set_iteration_sites(ctx: ModuleContext) -> Iterator[ast.AST]:
    """Expressions iterated in an order-sensitive position."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and node.args
        ):
            yield node.args[0]


@register_rule(
    "DET-SET-ITER",
    summary="iteration over a set without sorted()",
    invariant="every iteration order that can reach an artifact is explicit",
    scopes=SIM_SCOPE + CLUSTER_SCOPE,
)
def check_det_set_iter(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``for x in set(...)`` / ``list({...})`` and friends.

    Set iteration order is hash-randomised across processes, so any set
    feeding event scheduling or artifact hashing must pass through
    ``sorted(...)`` first (which this rule recognises as the fix).
    """
    for site in _set_iteration_sites(ctx):
        if _is_set_expr(site):
            yield ctx.finding(
                site, "DET-SET-ITER",
                "iterating a set directly — wrap it in sorted(...) so the "
                "order is deterministic across processes",
            )


@register_rule(
    "DET-ID-ORDER",
    summary="builtin id() used; object identity is not stable across runs",
    invariant="no ordering or keying ever derives from memory addresses",
    scopes=SIM_SCOPE,
)
def check_det_id_order(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag calls to builtin ``id()`` in simulation-facing code."""
    for call in ctx.calls():
        if isinstance(call.func, ast.Name) and call.func.id == "id" \
                and "id" not in ctx.imports:
            yield ctx.finding(
                call, "DET-ID-ORDER",
                "id() is a memory address — ordering or keying by it "
                "changes run to run; use an explicit sequence number",
            )


@register_rule(
    "DET-OBJECT-HASH",
    summary="builtin hash() of an object used; salted and identity-based",
    invariant="artifact-reaching keys come from stable content, not hash()",
    scopes=SIM_SCOPE,
)
def check_det_object_hash(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag calls to builtin ``hash()`` in simulation-facing code.

    ``hash(str)`` is salted per process (PYTHONHASHSEED) and
    ``hash(object)`` is the address — either one feeding a key or an
    order is a cross-process determinism bug.  Content digests
    (``hashlib``) are the approved alternative and are not flagged.
    """
    for call in ctx.calls():
        if isinstance(call.func, ast.Name) and call.func.id == "hash" \
                and "hash" not in ctx.imports:
            yield ctx.finding(
                call, "DET-OBJECT-HASH",
                "builtin hash() is process-salted — derive keys from "
                "stable content (hashlib, explicit tuples) instead",
            )


# --- SQL-*: transaction discipline in the cluster broker --------------------

_EXECUTE_METHODS = ("execute", "executemany", "executescript")
_MUTATING_SQL = ("UPDATE", "INSERT", "DELETE", "REPLACE")


def _leading_sql(arg: ast.AST) -> str | None:
    """The constant head of a SQL argument (plain or f-string), if any."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None


def _sql_keyword(sql: str) -> str | None:
    """The first SQL keyword of a statement text, uppercased."""
    words = sql.strip().split(None, 1)
    return words[0].upper() if words else None


@register_rule(
    "SQL-TXN",
    summary="mutating SQL outside a BEGIN IMMEDIATE transaction",
    invariant="every queue mutation is atomic under BEGIN IMMEDIATE",
    scopes=CLUSTER_SCOPE,
)
def check_sql_txn(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag UPDATE/INSERT/DELETE executes with no prior BEGIN IMMEDIATE.

    The check is per function: a mutating ``conn.execute(...)`` must be
    preceded (in source order, same function) by an
    ``execute("BEGIN IMMEDIATE")``.  Helpers that *document* an open
    caller-held transaction carry a reasoned ``allow`` instead — the
    point is that running a mutation on a bare autocommit connection is
    never invisible.
    """
    for fn in ctx.functions():
        statements: list[tuple[tuple[int, int], str, ast.Call]] = []
        for node in shallow_body(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _EXECUTE_METHODS
                    and node.args):
                continue
            sql = _leading_sql(node.args[0])
            if sql is None:
                continue
            keyword = _sql_keyword(sql)
            if keyword == "BEGIN":
                statements.append(((node.lineno, node.col_offset), "BEGIN", node))
            elif keyword in _MUTATING_SQL:
                statements.append(((node.lineno, node.col_offset), keyword, node))
        statements.sort(key=lambda item: item[0])
        begun = False
        for _pos, kind, node in statements:
            if kind == "BEGIN":
                begun = True
            elif not begun:
                yield ctx.finding(
                    node, "SQL-TXN",
                    f"{kind} on a bare autocommit connection — run queue "
                    f"mutations inside a BEGIN IMMEDIATE transaction",
                )


# --- ALW-* / LNT-*: the suppression machinery polices itself ----------------
#
# These rules are *emitted by the runner* (which is the layer that sees
# comments and parse failures); they are registered here with no-op
# checkers so `--list-rules`, the docs cross-check, and the scope wiring
# treat them like any other rule.  None of them is suppressible — an
# allow comment cannot vouch for itself.


def _runner_emitted(_ctx: ModuleContext) -> Iterator[Finding]:
    return iter(())


for _id, _summary, _invariant in (
    ("ALW-REASON", "allow() suppression without a reason string",
     "every suppression carries a reviewable justification"),
    ("ALW-UNKNOWN", "allow() names a rule id the registry does not know",
     "suppressions always point at a real, current rule"),
    ("ALW-UNUSED", "allow() suppresses nothing on its line",
     "stale suppressions are removed, not accumulated"),
    ("LNT-PARSE", "file does not parse as Python",
     "every file under analysis is actually analysable"),
):
    register_rule(_id, summary=_summary, invariant=_invariant, scopes=("*",),
                  suppressible=False)(_runner_emitted)
