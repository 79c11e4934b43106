"""The declarative scenario DSL: one dataclass describes one setting.

A :class:`Scenario` bundles everything that defines an evaluation
setting — a topology, a traffic pattern, a flow-size law, a load, and
link impairments — into a frozen, hashable, JSON-round-trippable value,
exactly like :class:`~repro.api.spec.ExperimentSpec` does for experiment
runs::

    s = Scenario("demo", pattern="incast", distribution="web-search")
    assert Scenario.from_dict(s.to_dict()) == s

Scenarios deliberately do *not* carry a seed or a duration: those are
run-time axes owned by the experiment spec, so one scenario definition
fans out over ``seeds=(1..8)`` without being rewritten per leg.  The
deterministic flow list for a (scenario, seed, duration) triple comes
from :func:`repro.scenarios.patterns.scenario_flows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from repro.errors import ConfigurationError, require_fields

__all__ = [
    "GADGET_PATTERNS",
    "GADGET_TOPOLOGIES",
    "PAPER_TOPOLOGIES",
    "PATTERNS",
    "SCENARIO_TOPOLOGIES",
    "Scenario",
]

#: Round-based patterns: ``flows_per_host`` flows per sender per round,
#: sizes from the named ``distribution`` capped at ``size_cap``.
GADGET_PATTERNS = ("incast", "all-to-all", "permutation", "staggered-burst")

#: Traffic patterns :func:`~repro.scenarios.patterns.scenario_flows` knows:
#: the gadget patterns, the paper's Poisson arrivals at ``utilization``
#: (§2.3), and Figure 4's permanent flows.
PATTERNS = GADGET_PATTERNS + ("poisson", "long-lived")

#: The canonical gadgets of :mod:`repro.topology.simple`, sized by
#: :attr:`Scenario.hosts`.
GADGET_TOPOLOGIES = ("single-switch", "dumbbell", "parking-lot")

#: The paper's five topologies (§2.3), at a fixed laptop size.
PAPER_TOPOLOGIES = ("i2-1g-10g", "i2-1g-1g", "i2-10g-10g", "rocketfuel",
                    "fattree")

#: Topologies a scenario may name.
SCENARIO_TOPOLOGIES = GADGET_TOPOLOGIES + PAPER_TOPOLOGIES

#: The fields each pattern and each topology reads.  A field that neither
#: the scenario's pattern nor its topology reads must keep its default,
#: so a setting can never carry a knob that silently does nothing.
_READS: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(GADGET_PATTERNS, ("distribution", "flows_per_host",
                                      "size_cap", "interval", "jitter")),
    "poisson": ("size_cap", "utilization"),
    "long-lived": ("jitter",),
    **dict.fromkeys(GADGET_TOPOLOGIES, ("hosts", "delay", "bottleneck_scale")),
    **dict.fromkeys(PAPER_TOPOLOGIES, ()),
}
_OWNED = frozenset(name for names in _READS.values() for name in names)

#: The JSON kind of every field :meth:`Scenario.from_dict` reads.
_FIELD_KINDS = {
    **dict.fromkeys(("name", "pattern", "distribution", "topology"), "string"),
    **dict.fromkeys(("hosts", "flows_per_host", "size_cap"), "integer"),
    **dict.fromkeys(("interval", "jitter", "delay", "bottleneck_scale",
                     "utilization"), "number"),
}


def _require_number(name: str, value: object, *, minimum: float | None = None,
                    positive: bool = False, integer: bool = False) -> None:
    """One validator for the numeric knobs (bools are not numbers here)."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise ConfigurationError(f"scenario {name} must be {kind}, got {value!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"scenario {name} must be finite, got {value!r}")
    if positive and value <= 0:
        raise ConfigurationError(f"scenario {name} must be > 0, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"scenario {name} must be >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True, slots=True)
class Scenario:
    """One declarative evaluation setting.

    ``pattern`` picks the communication structure (who talks to whom,
    when) and ``topology`` the network the traffic crosses; each reads
    only its own fields (``_READS``), and any other field left off its
    default is rejected here.

    The gadget topologies are sized by ``hosts`` and take the impairment
    knobs: ``delay`` adds per-link propagation (seconds) and
    ``bottleneck_scale`` multiplies the bottleneck bandwidth (``0.5``
    halves it — the degraded-path regime of the mininet methodology this
    matrix reproduces).  The paper's topologies have a fixed size and no
    impairments, and carry only ``poisson`` traffic.

    The gadget patterns send ``flows_per_host`` flows per source per
    round, one round every ``interval`` seconds until the run's duration
    is covered; starts are jittered uniformly in ``[0, jitter]`` from
    the round boundary, and sizes drawn from ``distribution`` (a name
    from :func:`repro.workload.distributions.distribution_names`) are
    capped at ``size_cap`` bytes.  ``poisson`` offers ``utilization`` of
    the topology's bottleneck from every host, with sizes from the
    paper's Pareto law truncated at ``size_cap``; ``long-lived`` starts
    one never-ending flow per sender within ``jitter``.
    """

    name: str
    pattern: str = "incast"
    distribution: str = "web-search"
    topology: str = "dumbbell"
    hosts: int = 6
    flows_per_host: int = 2
    size_cap: int = 500_000
    interval: float = 0.005
    jitter: float = 0.001
    delay: float = 0.0
    bottleneck_scale: float = 1.0
    utilization: float = 0.7

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        if self.pattern not in PATTERNS:
            raise ConfigurationError(
                f"unknown traffic pattern {self.pattern!r}; "
                f"choose from {PATTERNS}"
            )
        if self.topology not in SCENARIO_TOPOLOGIES:
            raise ConfigurationError(
                f"unknown scenario topology {self.topology!r}; "
                f"choose from {SCENARIO_TOPOLOGIES}"
            )
        if self.topology in PAPER_TOPOLOGIES and self.pattern != "poisson":
            raise ConfigurationError(
                f"topology {self.topology!r} carries only poisson traffic, "
                f"not {self.pattern!r}"
            )
        from repro.workload.distributions import distribution_names

        if self.distribution not in distribution_names():
            raise ConfigurationError(
                f"unknown distribution {self.distribution!r}; choose from "
                f"{list(distribution_names())}"
            )
        _require_number("hosts", self.hosts, minimum=2, integer=True)
        _require_number("flows_per_host", self.flows_per_host, minimum=1,
                        integer=True)
        _require_number("size_cap", self.size_cap, minimum=1, integer=True)
        _require_number("interval", self.interval, positive=True)
        _require_number("jitter", self.jitter, minimum=0.0)
        _require_number("delay", self.delay, minimum=0.0)
        _require_number("bottleneck_scale", self.bottleneck_scale,
                        positive=True)
        _require_number("utilization", self.utilization, positive=True)
        reads = _READS[self.pattern] + _READS[self.topology]
        for f in fields(self):
            if (f.name in _OWNED and f.name not in reads
                    and getattr(self, f.name) != f.default):
                raise ConfigurationError(
                    f"scenario {self.name!r}: neither pattern "
                    f"{self.pattern!r} nor topology {self.topology!r} reads "
                    f"{f.name}; leave it at its default {f.default!r}"
                )

    @property
    def size_law(self) -> str:
        """The flow-size law this scenario draws, as listings name it."""
        if self.pattern == "poisson":
            return f"bounded-pareto[1500,{self.size_cap}]"
        if self.pattern == "long-lived":
            return "unbounded"
        return self.distribution

    def with_(self, **changes: object) -> "Scenario":
        """A copy with fields replaced (scenarios are frozen)."""
        return replace(self, **changes)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable dict; lossless under :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (or hand JSON);
        a malformed document raises :class:`ConfigurationError`."""
        return cls(**require_fields("scenario", data, _FIELD_KINDS,
                                    required=("name",)))
