"""The rule registry and the per-module AST context checkers share.

A :class:`Rule` is a stable ID, a one-line summary, the invariant it
protects (the ``docs/determinism.md`` column), the path scopes it
applies in (see :mod:`repro.lintkit.config`), and a checker — a
function taking a :class:`ModuleContext` and yielding
:class:`~repro.lintkit.findings.Finding`\\ s.  Rules self-register via
:func:`register_rule`; the concrete checkers live in
:mod:`repro.lintkit.checks`, imported lazily by :func:`load_rules` so
the registry is populated exactly once however the package is entered.

The :class:`ModuleContext` does the shared AST bookkeeping one parse
pays for once per file: an import table that resolves local names to
canonical dotted origins (``np.random.default_rng`` →
``numpy.random.default_rng``) and cached call and function lists.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.lintkit.findings import Finding

__all__ = [
    "RULES",
    "ModuleContext",
    "Rule",
    "load_rules",
    "register_rule",
    "rule_ids",
]

#: Checker signature: one module in, findings out.
Checker = Callable[["ModuleContext"], Iterator[Finding]]


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered rule: identity, documentation, scope, checker."""

    id: str
    summary: str
    invariant: str
    scopes: tuple[str, ...]
    check: Checker
    #: Rules about the suppression machinery itself cannot be suppressed.
    suppressible: bool = True

    def to_dict(self) -> dict:
        """The ``--list-rules --format json`` row."""
        return {
            "id": self.id,
            "summary": self.summary,
            "invariant": self.invariant,
            "scopes": list(self.scopes),
            "suppressible": self.suppressible,
        }


#: The registry: rule id → :class:`Rule`, populated by :func:`load_rules`.
RULES: dict[str, Rule] = {}


def register_rule(
    id: str,
    summary: str,
    invariant: str,
    scopes: tuple[str, ...],
    suppressible: bool = True,
) -> Callable[[Checker], Checker]:
    """Decorator: register ``fn`` as the checker behind rule ``id``."""

    def decorator(fn: Checker) -> Checker:
        if id in RULES:
            raise ValueError(f"lint rule {id!r} is already registered")
        RULES[id] = Rule(
            id=id, summary=summary, invariant=invariant, scopes=scopes,
            check=fn, suppressible=suppressible,
        )
        return fn

    return decorator


def load_rules() -> dict[str, Rule]:
    """The fully populated registry (imports the checkers on first call)."""
    importlib.import_module("repro.lintkit.checks")
    return RULES


def rule_ids() -> tuple[str, ...]:
    """Every registered rule id, sorted — the ``--list-rules`` set."""
    return tuple(sorted(load_rules()))


def _import_table(tree: ast.Module) -> dict[str, str]:
    """Local name → canonical dotted origin, from the module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Relative
    imports keep their module path as written (level dots dropped) —
    precise enough for the stdlib/numpy origins the rules match on.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


class ModuleContext:
    """One parsed module plus the derived tables every checker shares."""

    __slots__ = ("path", "tree", "imports", "_calls", "_functions")

    def __init__(self, path: str | Path, tree: ast.Module) -> None:
        self.path = str(path)
        self.tree = tree
        self.imports = _import_table(tree)
        self._calls: list[ast.Call] | None = None
        self._functions: list[ast.FunctionDef | ast.AsyncFunctionDef] | None = None

    # -- node inventories (walked once, cached) ----------------------------

    def calls(self) -> list[ast.Call]:
        if self._calls is None:
            self._calls = [n for n in ast.walk(self.tree)
                           if isinstance(n, ast.Call)]
        return self._calls

    def functions(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        if self._functions is None:
            self._functions = [
                n for n in ast.walk(self.tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        return self._functions

    # -- name resolution ---------------------------------------------------

    def dotted(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an expression, or None if unresolvable.

        ``Name`` resolves through the import table (falling back to the
        bare name, which is how builtins like ``id`` surface);
        ``Attribute`` chains resolve their base and append, so
        ``np.random.default_rng`` canonicalises through ``np -> numpy``.
        Anything rooted in a call result or subscript is None — the
        rules only judge names they can trace to an import or builtin.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    # -- findings ----------------------------------------------------------

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        """A finding anchored at ``node``'s source location."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule_id,
            message=message,
        )


def shallow_body(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/classes.

    The SQL rule reasons about *one* function's statement sequence; a
    nested helper has its own discipline and is visited on its own turn
    through :meth:`ModuleContext.functions`.
    """
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
