"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single front door to the evaluation
stack: it names a registered experiment (``"table1"``, ``"fig2"``, …)
and carries the knobs every driver understands — scheduler sweep,
topology, utilisation, duration, seeds, bandwidth scale, slack policy —
plus an open-ended ``options`` bag for experiment-specific parameters
(e.g. ``rows`` for Table 1 subsets).

Specs are frozen, hashable, and JSON-round-trippable::

    spec = ExperimentSpec("table1", duration=0.1, options={"rows": (0, 13)})
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec

which makes them safe to ship across process boundaries (the parallel
runner), persist inside :class:`~repro.api.results.RunArtifact` files,
and diff between runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from repro.errors import (
    ConfigurationError,
    WorkloadError,
    require_fields,
    require_positive_finite,
)

__all__ = ["ExperimentSpec"]

_SCALARS = (bool, int, float, str, type(None))

#: The JSON kind of every field :meth:`ExperimentSpec.from_dict` reads.
_FIELD_KINDS = {
    **dict.fromkeys(("experiment", "name", "topology"), "string"),
    **dict.fromkeys(("schedulers", "replay_modes", "scenarios"),
                    "array of string"),
    **dict.fromkeys(("utilization", "duration", "bandwidth_scale"), "number"),
    "seeds": "array of integer",
    "slack_policy": "string or null",
    "options": "object",
}


def _freeze_option(key: str, value: object) -> object:
    """Coerce one option value to a hashable, JSON-round-trippable form."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (tuple, list)):
        items = tuple(value)
        for item in items:
            if not isinstance(item, _SCALARS):
                raise ConfigurationError(
                    f"option {key!r} contains non-scalar element {item!r}"
                )
        return items
    raise ConfigurationError(
        f"option {key!r} must be a scalar or a flat sequence, got {value!r}"
    )


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One declarative experiment run (or sweep).

    ``schedulers`` and ``seeds`` may hold several values; drivers treat
    an empty ``schedulers`` tuple as "this experiment's default sweep"
    and use :attr:`seed` (the first entry) for their RNGs.  Use
    :meth:`sweep` to expand a multi-seed spec into single-seed specs for
    :func:`repro.api.runner.run_many`.

    ``slack_policy`` uses the grammar of
    :func:`repro.core.heuristics.parse_slack_policy`
    (``"constant[:seconds]"``, ``"flow-size[:D]"``,
    ``"virtual-clock:rate"``) and overrides the LSTF slack heuristic in
    the drivers that take one (``fig2``, ``fig3``); it is validated at
    construction.

    ``replay_modes`` is the record-once/replay-many sweep axis: each
    entry is one of :data:`repro.core.replay.REPLAY_MODES` and
    :meth:`sweep` expands the tuple into one single-mode spec per entry,
    exactly like ``seeds``.  Replay-driven drivers read
    :attr:`replay_mode` (the first entry; ``"lstf"`` — the paper's
    default — when the tuple is empty), and every leg of the expanded
    sweep reuses the same recorded original schedule through the shared
    schedule store (see :mod:`repro.core.trace_io`), so an M-mode sweep
    pays for each unique recording once, not M times.

    ``scenarios`` is the declarative-workload sweep axis: each entry
    names a registered :class:`repro.scenarios.Scenario` and
    :meth:`sweep` expands the tuple outermost, so an N-scenario ×
    M-seed spec fans into N × M legs.  Scenario-driven drivers read
    :attr:`scenario` (the first entry; ``"websearch-incast"`` when the
    tuple is empty).
    """

    experiment: str
    name: str = ""
    schedulers: tuple[str, ...] = ()
    topology: str = "i2-1g-10g"
    utilization: float = 0.7
    duration: float = 0.2
    seeds: tuple[int, ...] = (1,)
    bandwidth_scale: float = 0.01
    slack_policy: str | None = None
    replay_modes: tuple[str, ...] = ()
    scenarios: tuple[str, ...] = ()
    options: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ConfigurationError("spec needs a non-empty experiment name")
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        seeds = tuple(self.seeds)
        if not seeds:
            raise ConfigurationError("spec needs at least one seed")
        if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool)
                   for s in seeds):  # the rule ``from_dict``'s kinds apply
            raise ConfigurationError(f"seeds must be integers, got {seeds!r}")
        seeds = tuple(map(int, seeds))
        if min(seeds) < 0:
            raise ConfigurationError(f"seeds must be >= 0, got {seeds!r}")
        object.__setattr__(self, "seeds", seeds)
        for knob in ("duration", "bandwidth_scale", "utilization"):
            require_positive_finite(getattr(self, knob), knob)
        if self.slack_policy is not None:
            from repro.core.heuristics import parse_slack_policy

            try:  # fail fast on bad grammar
                parse_slack_policy(self.slack_policy)
            except WorkloadError as exc:
                raise ConfigurationError(f"slack_policy: {exc}") from exc
        modes = tuple(str(m) for m in self.replay_modes)
        if modes:
            from repro.core.replay import REPLAY_MODES

            unknown_modes = [m for m in modes if m not in REPLAY_MODES]
            if unknown_modes:
                raise ConfigurationError(
                    f"unknown replay mode(s) {unknown_modes}; "
                    f"choose from {REPLAY_MODES}"
                )
        object.__setattr__(self, "replay_modes", modes)
        scens = tuple(str(s) for s in self.scenarios)
        if scens:
            from repro.scenarios import scenario_names

            names = scenario_names()
            unknown_scens = [s for s in scens if s not in names]
            if unknown_scens:
                raise ConfigurationError(
                    f"unknown scenario(s) {unknown_scens}; "
                    f"choose from {list(names)}"
                )
        object.__setattr__(self, "scenarios", scens)
        raw = self.options
        if isinstance(raw, Mapping):
            pairs: Iterable[tuple[str, object]] = raw.items()
        else:
            pairs = tuple(raw)
        frozen = tuple(
            sorted(
                ((str(k), _freeze_option(str(k), v)) for k, v in pairs),
                key=lambda kv: kv[0],
            )
        )
        keys = [k for k, _ in frozen]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate option keys in {keys}")
        object.__setattr__(self, "options", frozen)

    # -- convenience accessors -------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable name: explicit ``name`` or the experiment id."""
        return self.name or self.experiment

    @property
    def seed(self) -> int:
        """The first (often only) seed — what single-run drivers use."""
        return self.seeds[0]

    @property
    def replay_mode(self) -> str:
        """The first (often only) replay mode; ``"lstf"`` when unset.

        Mirrors :attr:`seed`: replay-driven drivers run this mode, and a
        multi-mode spec is expanded into single-mode specs by
        :meth:`sweep` before it reaches a driver.
        """
        return self.replay_modes[0] if self.replay_modes else "lstf"

    @property
    def scenario(self) -> str:
        """The first (often only) scenario name; the default when unset.

        Mirrors :attr:`seed`: scenario-driven drivers run this scenario,
        and a multi-scenario spec is expanded into single-scenario specs
        by :meth:`sweep` before it reaches a driver.
        """
        return self.scenarios[0] if self.scenarios else "websearch-incast"

    def option(self, key: str, default: object = None) -> object:
        """The value of experiment-specific option ``key`` (or ``default``)."""
        for k, v in self.options:
            if k == key:
                return v
        return default

    def with_(self, **changes: object) -> "ExperimentSpec":
        """A copy with fields replaced (``options`` may be a mapping)."""
        return replace(self, **changes)

    # -- sweeps -----------------------------------------------------------

    def sweep(self) -> list["ExperimentSpec"]:
        """Expand into one spec per (scenario, seed, mode) leg.

        Each multi-valued axis of :attr:`scenarios`, :attr:`seeds` and
        :attr:`replay_modes` becomes one spec per value; the scheduler
        sweep stays whole in every leg (drivers loop over schemes).

        Scenario legs are emitted outermost — each scenario's whole
        seed × mode block is contiguous — and replay-mode legs
        innermost, so the legs sharing one recorded schedule sit next to
        each other and the runner's record-once pre-pass (see
        :func:`~repro.api.runner.run_many`) simulates each unique
        original schedule exactly once for all of them.
        """
        scen_axis = tuple((s,) for s in self.scenarios) or (self.scenarios,)
        mode_axis = tuple((m,) for m in self.replay_modes) or (self.replay_modes,)
        return [replace(self, seeds=(seed,), replay_modes=modes, scenarios=scens)
                for scens in scen_axis for seed in self.seeds for modes in mode_axis]

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable dict; lossless under :meth:`from_dict`."""
        return {
            "experiment": self.experiment,
            "name": self.name,
            "schedulers": list(self.schedulers),
            "topology": self.topology,
            "utilization": self.utilization,
            "duration": self.duration,
            "seeds": list(self.seeds),
            "bandwidth_scale": self.bandwidth_scale,
            "slack_policy": self.slack_policy,
            "replay_modes": list(self.replay_modes),
            "scenarios": list(self.scenarios),
            "options": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.options
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON);
        a malformed document raises :class:`ConfigurationError`."""
        kwargs = require_fields("spec", data, _FIELD_KINDS,
                                required=("experiment",))
        for key in ("schedulers", "seeds", "replay_modes", "scenarios"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "options" in kwargs:
            kwargs["options"] = {
                k: (tuple(v) if isinstance(v, list) else v)
                for k, v in kwargs["options"].items()
            }
        return cls(**kwargs)
