"""The experiment table: names → spec-driven drivers.

Every paper artefact adds itself with::

    @register_experiment("table1", help="Table 1: LSTF replayability rows")
    def run_table1(spec: ExperimentSpec) -> Table: ...

A driver takes an :class:`~repro.api.spec.ExperimentSpec` and returns a
:class:`~repro.analysis.tables.Table` (optionally ``(table, metadata)``);
the runner wraps that into a :class:`~repro.api.results.RunArtifact`.

:func:`get` and :func:`experiment_names` are the table's only lookups:
``repro.api.get("fig2")`` replaces scattered ``from repro.experiments.fct
import …`` imports, and the CLI generates one subcommand per name.  The
built-in drivers are imported on the first lookup, so importing
:mod:`repro.api` stays cheap and forked/spawned worker processes fill
their own table.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.spec import ExperimentSpec

__all__ = [
    "RegisteredExperiment",
    "register_experiment",
    "get",
    "check_spec",
    "experiment_names",
]

#: Spec fields a driver may leave out of its ``params`` at any value:
#: the experiment name and the label, ``options`` (checked on its own),
#: and ``seeds``, the sweep axis every experiment takes — a seed sweep of
#: the exact gadgets is one artifact per seed (each pinned).
_UNDECLARED = ("experiment", "name", "options", "seeds")

#: Name → entry; :func:`register_experiment` fills it as the driver
#: modules are imported.
_EXPERIMENTS: dict[str, "RegisteredExperiment"] = {}


@dataclass(frozen=True, slots=True)
class RegisteredExperiment:
    """One table entry: the driver plus its CLI-facing description.

    ``options`` declares the ``ExperimentSpec.options`` keys the driver
    reads; :func:`check_spec` rejects specs carrying any other key, so a
    knob can never be silently ignored.  ``params`` declares which spec
    *fields* the driver reads (``"duration"``, ``"seeds"``, …);
    :func:`check_spec` rejects a spec that moves any other field off its
    default, and the CLI the flags that would set one.

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


def _table() -> dict[str, RegisteredExperiment]:
    """The experiment table, with the built-in drivers imported (their
    ``@register_experiment`` decorators fill it)."""
    importlib.import_module("repro.experiments")
    return _EXPERIMENTS


def register_experiment(
    name: str,
    *,
    help: str = "",
    options: tuple[str, ...] = (),
    params: tuple[str, ...] = (),
    prerequisites: Callable | None = None,
) -> Callable[[Callable], Callable]:
    """Add a driver to the experiment table (decorator).

    ``name`` is the experiment id; ``help`` is the one-liner ``repro
    list`` shows; ``options`` and ``params`` declare the spec
    options/fields the driver reads (anything else is rejected loudly);
    ``prerequisites`` is the build-once hook — see
    :class:`RegisteredExperiment`.  A name already in the table is an
    error, so two drivers can never shadow each other silently.
    """

    def decorator(fn: Callable) -> Callable:
        if name in _EXPERIMENTS:
            raise ConfigurationError(
                f"experiment {name!r} is already registered"
            )
        _EXPERIMENTS[name] = RegisteredExperiment(
            name=name, fn=fn, help=help, options=tuple(options),
            params=tuple(params), prerequisites=prerequisites,
        )
        return fn

    return decorator


def get(name: str) -> RegisteredExperiment:
    """The entry for experiment ``name``; unknown names raise."""
    try:
        return _table()[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered: {experiment_names()}"
        ) from None


def check_spec(spec: "ExperimentSpec") -> None:
    """Raise :class:`ConfigurationError` unless ``spec``'s experiment reads
    all of it: every option key declared, every undeclared field at its
    default.  ``run``, ``run_many`` and ``submit`` call it first."""
    entry = get(spec.experiment)
    unknown = [key for key, _ in spec.options if key not in entry.options]
    if unknown:
        accepted = ", ".join(entry.options) or "none"
        raise ConfigurationError(
            f"experiment {entry.name!r} does not read option(s) "
            f"{', '.join(map(repr, unknown))} (accepted: {accepted})"
        )
    unread = [f.name for f in fields(spec)
              if f.name not in _UNDECLARED and f.name not in entry.params
              and getattr(spec, f.name) != f.default]
    if unread:
        raise ConfigurationError(
            f"experiment {entry.name!r} does not read spec field(s) "
            f"{', '.join(map(repr, unread))}; leave them at their defaults"
        )


def experiment_names() -> tuple[str, ...]:
    """Every experiment name, sorted."""
    return tuple(sorted(_table()))
