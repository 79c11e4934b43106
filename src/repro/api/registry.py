"""The experiment registry: names → spec-driven drivers.

Every paper artefact registers itself with::

    @register_experiment("table1", help="Table 1: LSTF replayability rows")
    def run_table1(spec: ExperimentSpec) -> Table: ...

A driver takes an :class:`~repro.api.spec.ExperimentSpec` and returns a
:class:`~repro.analysis.tables.Table` (optionally ``(table, metadata)``);
the runner wraps that into a :class:`~repro.api.results.RunArtifact`.

``repro.api.get("fig2")`` replaces scattered ``from repro.experiments.fct
import …`` imports, and the CLI auto-generates one subcommand per
registered name.  Built-in experiments load lazily on first lookup, so
importing :mod:`repro.api` stays cheap and forked/spawned worker
processes self-populate.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError

__all__ = [
    "ExperimentRegistry",
    "RegisteredExperiment",
    "REGISTRY",
    "register_experiment",
    "get",
    "experiment_names",
]

# Importing these modules runs their @register_experiment decorators.
_BUILTIN_MODULES = ("repro.experiments",)


@dataclass(frozen=True, slots=True)
class RegisteredExperiment:
    """One registry entry: the driver plus its CLI-facing description.

    ``options`` declares the ``ExperimentSpec.options`` keys the driver
    reads; the runner rejects specs carrying any other key, so a knob
    can never be silently ignored.  ``params`` declares which spec
    *fields* the driver reads (``"duration"``, ``"seeds"``, …); the CLI
    uses it to reject flags an experiment would ignore.

    ``prerequisites`` is the build-once/share-many hook: it maps a spec
    to what must exist before the driver runs, grouped by store kind —
    ``{"schedule": {store key: zero-arg recorder}}`` for drivers that
    replay recorded schedules, ``{"checkpoint": {store key: zero-arg
    builder}}`` for drivers that branch from a warm-up prefix (the kinds
    of :data:`repro.api.runner.STORE_KINDS`).  Builders must be picklable
    (``functools.partial`` over a module-level function), because the
    runner's pre-pass may execute them in worker processes; each returns
    the value its store holds (a
    :class:`~repro.core.replay.RecordedSchedule`, a
    :class:`~repro.sim.checkpoint.Snapshot`).  ``None`` (the default)
    means the experiment builds nothing reusable.
    """

    name: str
    fn: Callable
    help: str = ""
    options: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    prerequisites: Callable | None = None

    def __call__(self, spec):
        """Run the driver on ``spec`` (sugar for ``entry.fn(spec)``)."""
        return self.fn(spec)


@dataclass
class ExperimentRegistry:
    """A name → driver mapping with decorator-based registration."""

    _entries: dict[str, RegisteredExperiment] = field(default_factory=dict)
    _loaded: bool = False

    def register(
        self,
        name: str,
        *,
        help: str = "",
        options: tuple[str, ...] = (),
        params: tuple[str, ...] = (),
        prerequisites: Callable | None = None,
    ) -> Callable[[Callable], Callable]:
        """Decorator: register ``fn`` as the driver for ``name``."""

        def decorator(fn: Callable) -> Callable:
            if name in self._entries:
                raise ConfigurationError(
                    f"experiment {name!r} is already registered"
                )
            self._entries[name] = RegisteredExperiment(
                name=name, fn=fn, help=help, options=tuple(options),
                params=tuple(params), prerequisites=prerequisites,
            )
            return fn

        return decorator

    def _load_builtins(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)

    def get(self, name: str) -> RegisteredExperiment:
        """Resolve a name to its entry (loading built-ins)."""
        self._load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown experiment {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered names, sorted."""
        self._load_builtins()
        return tuple(sorted(self._entries))

    def entries(self) -> tuple[RegisteredExperiment, ...]:
        """Every registry entry, in name order."""
        self._load_builtins()
        return tuple(self._entries[n] for n in self.names())

    def __contains__(self, name: str) -> bool:
        """True when ``name`` is a registered name."""
        self._load_builtins()
        return name in self._entries


#: The process-wide registry the decorators below write into.
REGISTRY = ExperimentRegistry()


def register_experiment(
    name: str,
    *,
    help: str = "",
    options: tuple[str, ...] = (),
    params: tuple[str, ...] = (),
    prerequisites: Callable | None = None,
) -> Callable[[Callable], Callable]:
    """Register a driver on the global :data:`REGISTRY` (decorator).

    ``name`` is the experiment id; ``help`` is the one-liner ``repro
    list`` shows; ``options`` and ``params`` declare the spec
    options/fields the driver reads (anything else is rejected loudly);
    ``prerequisites`` is the build-once hook — see
    :class:`RegisteredExperiment`.
    """
    return REGISTRY.register(
        name, help=help, options=options, params=params,
        prerequisites=prerequisites,
    )


def get(name: str) -> RegisteredExperiment:
    """Look up a registered experiment by name."""
    return REGISTRY.get(name)


def experiment_names() -> tuple[str, ...]:
    """All registered experiment names."""
    return REGISTRY.names()
