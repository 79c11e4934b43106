"""The concrete rules: DET-* / SQL-* / THR-* / PERF-* checkers.

Each checker is registered on import via
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

from repro.lintkit.config import (
    CLUSTER_SCOPE,
    HOT_PATH_SCOPE,
    OBS_SCOPE,
    SIM_SCOPE,
)
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
    approved entry points (the pattern ``sim/aqm.py`` and the workload
    generators use); called with *no* seed they are still
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


# --- OBS-*: telemetry must observe, never steer -----------------------------

#: Registration points whose callback argument runs on the engine's
#: sampler path (excluded from event accounting, dropped from
#: checkpoints) — so it must not be able to change what the run means.
_SAMPLER_REGISTRARS = ("add_sampler", "schedule_sample")
#: Keyword names the registrars accept for the callback argument.
_SAMPLER_CALLBACK_KWARGS = ("fn", "callback")


def _sampler_callback_arg(call: ast.Call) -> ast.AST | None:
    """The callback expression of a sampler registration, if present.

    Both registrars take the callback last: ``add_sampler(name, fn)``
    and ``schedule_sample(time, callback)``.
    """
    for kw in call.keywords:
        if kw.arg in _SAMPLER_CALLBACK_KWARGS:
            return kw.value
    if len(call.args) >= 2:
        return call.args[-1]
    return None


def _local_functions(
    ctx: ModuleContext,
) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """Module functions by name (last definition wins, like runtime)."""
    return {fn.name: fn for fn in ctx.functions()}


def _state_writes(body: Iterator[ast.AST]) -> Iterator[tuple[ast.AST, str]]:
    """(node, description) for each write to non-local state in ``body``.

    A *pure reader* may bind local names; what it may not do is assign
    through an attribute or subscript — ``port._queued = 0``,
    ``flow.slack -= x``, ``net.nodes[k] = ...`` — because on the sampler
    path that mutation is invisible to event accounting and silently
    diverges a hub-on run from a hub-off one.
    """
    for node in body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    yield node, f"attribute {ast.unparse(target)}"
                elif isinstance(target, ast.Subscript):
                    yield node, f"item {ast.unparse(target)}"
        elif isinstance(node, (ast.Delete,)):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    yield node, f"del {ast.unparse(target)}"


@register_rule(
    "OBS-SAMPLER-PURE",
    summary="sampler callback mutates simulation state",
    invariant="telemetry sampling can never change what a run computes",
    scopes=SIM_SCOPE + OBS_SCOPE,
)
def check_obs_sampler_pure(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag sampler callbacks that write attributes or container items.

    Sampler events (``engine.schedule_sample``, ``hub.add_sampler``) are
    excluded from ``events_processed``, ``ENGINE_PERF``, the flight
    recorder, and checkpoints — the whole determinism contract rests on
    them being *pure readers*.  The check is syntactic and local: when
    the callback argument is a ``lambda`` or resolves to a module-level
    ``def``, its body must contain no attribute/subscript assignment.
    Callbacks the AST cannot resolve (bound methods, call results) are
    skipped — the hub's own re-arming tick lives on that path and is
    reviewed by hand.
    """
    functions = None
    for call in ctx.calls():
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr in _SAMPLER_REGISTRARS):
            continue
        callback = _sampler_callback_arg(call)
        if callback is None:
            continue
        if isinstance(callback, ast.Lambda):
            body: ast.AST | None = callback
        elif isinstance(callback, ast.Name):
            if functions is None:
                functions = _local_functions(ctx)
            body = functions.get(callback.id)
        else:
            body = None
        if body is None:
            continue
        for node, what in _state_writes(ast.walk(body)):
            yield ctx.finding(
                node, "OBS-SAMPLER-PURE",
                f"sampler callback writes {what} — sampler events are "
                f"excluded from event accounting and checkpoints, so the "
                f"callback must be a pure reader of simulation state",
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


# --- THR-*: thread hygiene in the cluster workers ---------------------------


def _thread_targets(ctx: ModuleContext) -> set[str]:
    """Names of functions/methods used as ``threading.Thread`` targets."""
    targets: set[str] = set()
    for call in ctx.calls():
        if ctx.dotted(call.func) != "threading.Thread":
            continue
        for kw in call.keywords:
            if kw.arg != "target":
                continue
            value = kw.value
            if (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"):
                targets.add(value.attr)
            elif isinstance(value, ast.Name):
                targets.add(value.id)
    return targets


@register_rule(
    "THR-THREAD-MUT",
    summary="thread-target function mutates shared self state",
    invariant="helper threads signal through Events/queues, never by "
              "writing shared attributes",
    scopes=CLUSTER_SCOPE,
)
def check_thr_thread_mut(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``self.x = ...`` inside a ``threading.Thread`` target.

    A worker's heartbeat thread runs concurrently with the claim loop;
    any attribute it wrote would race the owning thread without a lock.
    The discipline (which ``cluster/worker.py`` follows) is that helper
    threads only *signal* — ``Event.set()`` — and the owning thread
    mutates its own state.
    """
    targets = _thread_targets(ctx)
    if not targets:
        return
    for fn in ctx.functions():
        if fn.name not in targets:
            continue
        for node in shallow_body(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                assigned = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in assigned:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        yield ctx.finding(
                            node, "THR-THREAD-MUT",
                            f"thread target {fn.name}() writes "
                            f"self.{target.attr} — shared worker state is "
                            f"owned by the claim loop; signal via an Event",
                        )


def _stop_event_classes(ctx: ModuleContext) -> set[str]:
    """Classes that own a ``threading.Event`` attribute (stop flags)."""
    owners: set[str] = set()
    for cls in ctx.classes():
        for node in ast.walk(cls):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and ctx.dotted(node.value.func) == "threading.Event"
                    and any(isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            for t in node.targets)):
                owners.add(cls.name)
    return owners


@register_rule(
    "THR-SLEEP",
    summary="time.sleep() in a class that owns a stop Event",
    invariant="graceful shutdown is never delayed by an uninterruptible "
              "sleep",
    scopes=CLUSTER_SCOPE,
)
def check_thr_sleep(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``time.sleep`` inside classes that carry a ``threading.Event``.

    A loop that owns a stop Event must idle with ``event.wait(s)`` so a
    SIGTERM-triggered ``request_stop`` interrupts the wait; a bare
    ``time.sleep`` turns graceful drain into a full-interval stall.
    """
    owners = _stop_event_classes(ctx)
    if not owners:
        return
    for cls in ctx.classes():
        if cls.name not in owners:
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) \
                    and ctx.dotted(node.func) == "time.sleep":
                yield ctx.finding(
                    node, "THR-SLEEP",
                    f"time.sleep() in {cls.name} — idle with the stop "
                    f"Event's wait() so shutdown requests interrupt it",
                )


# --- PERF-*: hot-path regression guards -------------------------------------


def _has_slots(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in node.targets
        ):
            return True
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == "__slots__":
            return True
    return False


def _is_slotted_dataclass(ctx: ModuleContext, cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = ctx.dotted(decorator.func)
        if name in ("dataclass", "dataclasses.dataclass"):
            for kw in decorator.keywords:
                if kw.arg == "slots" and isinstance(kw.value, ast.Constant) \
                        and kw.value.value is True:
                    return True
    return False


def _is_exempt_base(ctx: ModuleContext, base: ast.AST) -> bool:
    """Protocols and exceptions live off the hot path."""
    name = ctx.dotted(base)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1]
    return last == "Protocol" or last.endswith(("Error", "Exception"))


@register_rule(
    "PERF-SLOTS",
    summary="hot-path class without __slots__",
    invariant="per-packet objects stay dict-free so the hot path stays flat",
    scopes=HOT_PATH_SCOPE,
    exclude=("tests",),
)
def check_perf_slots(ctx: ModuleContext) -> Iterator[Finding]:
    """Every class in sim/ and schedulers/ declares ``__slots__``.

    ``@dataclass(slots=True)`` counts; ``typing.Protocol`` subclasses
    and exception types are exempt (they are never per-packet state).
    """
    for cls in ctx.classes():
        if _has_slots(cls) or _is_slotted_dataclass(ctx, cls):
            continue
        if any(_is_exempt_base(ctx, base) for base in cls.bases):
            continue
        yield ctx.finding(
            cls, "PERF-SLOTS",
            f"class {cls.name} has no __slots__ — sim/ and schedulers/ "
            f"classes allocate per packet and must stay dict-free",
        )


@register_rule(
    "PERF-SCHEDULE-HANDLE",
    summary="return value of schedule()/schedule_at() consumed",
    invariant="the handle-free fast path stays handle-free",
    scopes=SIM_SCOPE,
    exclude=("tests",),
)
def check_perf_schedule_handle(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag uses of ``engine.schedule(...)`` as a value.

    The hot-path ``schedule``/``schedule_at`` return ``None`` by design
    (PR 2 removed the handle-returning idiom); code that binds, returns
    or chains their result is either dead wrong or wants
    ``schedule_cancellable[_at]``.
    """
    for call in ctx.calls():
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr in ("schedule", "schedule_at")):
            continue
        parent = ctx.parent(call)
        if parent is not None and not isinstance(parent, ast.Expr):
            yield ctx.finding(
                call, "PERF-SCHEDULE-HANDLE",
                f"{call.func.attr}() returns None on the hot path — use "
                f"schedule_cancellable{'_at' if call.func.attr.endswith('_at') else ''}"
                f"() when a cancellable handle is needed",
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


register_rule(
    "ALW-REASON",
    summary="allow() suppression without a reason string",
    invariant="every suppression carries a reviewable justification",
    scopes=("*",),
    suppressible=False,
)(_runner_emitted)

register_rule(
    "ALW-UNKNOWN",
    summary="allow() names a rule id the registry does not know",
    invariant="suppressions always point at a real, current rule",
    scopes=("*",),
    suppressible=False,
)(_runner_emitted)

register_rule(
    "ALW-UNUSED",
    summary="allow() suppresses nothing on its line",
    invariant="stale suppressions are removed, not accumulated",
    scopes=("*",),
    suppressible=False,
)(_runner_emitted)

register_rule(
    "LNT-PARSE",
    summary="file does not parse as Python",
    invariant="every file under analysis is actually analysable",
    scopes=("*",),
    suppressible=False,
)(_runner_emitted)
