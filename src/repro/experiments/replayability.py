"""Replayability experiments: Table 1, Figure 1, and the §2.3 ablations.

A :class:`ReplayScenario` is one recording request: a registered
:class:`~repro.scenarios.Scenario` (one of the paper's topologies under
Poisson load), the "original" scheduling algorithm on its routers, and
the run's duration, seed and bandwidth scale.  :func:`run_replay`
records the original schedule and replays it with a candidate UPS,
returning the two Table 1 columns (fraction overdue, and overdue by more
than one bottleneck transmission time ``T``) plus the queueing-delay
ratios behind Figure 1.

Record once, replay many: recording the original schedule is the
expensive half of every replay experiment, and it depends only on the
request's *recording inputs* (setting, original scheduler, seed,
duration, scale) — never on the replay mode or slack policy under test.
:func:`get_recorded_schedule` therefore answers recordings through the
run's :class:`~repro.core.trace_io.ScheduleStore` when the runner has
one open (``run_many`` over a ``replay_modes`` sweep, ``--out`` caches,
queue workers), keyed by :func:`scenario_schedule_key`; each unique
schedule simulates once and every replay-mode leg reloads it.
Recordings are pid-stream independent, unobserved, and excluded from
the run's deterministic ``engine_events`` accounting
(:func:`builder_network`, the prologue they share with branch warm-ups),
so a leg's artifact and telemetry are identical whether its schedule was
recorded in-process or fetched from the store.

Scale: the scenario catalogue sizes the paper's topologies for a laptop
(a 20-host Internet2: 2 edge routers per core router instead of 10), and
every run defaults to 1/100th of the paper's bandwidths.  Utilisation —
the quantity the paper sweeps — is set against each topology's
bottleneck, so scheduling behaviour is preserved; see docs/paper-map.md.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.packet import reset_packet_ids
from repro.core.replay import (
    RecordedSchedule,
    ReplayResult,
    record_schedule,
    replay_schedule,
)
from repro.core.store import CLEAN, content_key
from repro.core.trace_io import ScheduleStore
from repro.errors import ConfigurationError, require_choice
from repro.scenarios import (
    PAPER_TOPOLOGIES,
    Scenario,
    build_scenario_network,
    get_scenario,
    udp_network,
)
from repro.sim.engine import ENGINE_PERF
from repro.sim.network import Network

__all__ = [
    "ReplayScenario",
    "build_recorded_schedule",
    "builder_network",
    "check_original_setting",
    "get_recorded_schedule",
    "prerequisites",
    "run_replay",
    "scenario_schedule_key",
    "schedule_prerequisites",
    "spec_recording",
    "table1_scenarios",
    "validate_row_indices",
]

ORIGINALS = ("random", "fifo", "fq", "sjf", "lifo", "fq+fifo+")

#: Table 1 in the paper's order: (row label, catalogue scenario,
#: utilisation, original scheduler).
TABLE1_ROWS = (
    ("I2 1G-10G / 70% / Random", "i2-1g-10g", 0.7, "random"),
    ("I2 1G-10G / 10% / Random", "i2-1g-10g", 0.10, "random"),
    ("I2 1G-10G / 30% / Random", "i2-1g-10g", 0.30, "random"),
    ("I2 1G-10G / 50% / Random", "i2-1g-10g", 0.50, "random"),
    ("I2 1G-10G / 90% / Random", "i2-1g-10g", 0.90, "random"),
    ("I2 1G-1G / 70% / Random", "i2-1g-1g", 0.7, "random"),
    ("I2 10G-10G / 70% / Random", "i2-10g-10g", 0.7, "random"),
    ("RocketFuel / 70% / Random", "rocketfuel", 0.7, "random"),
    ("Datacenter / 70% / Random", "fattree", 0.7, "random"),
    ("I2 1G-10G / 70% / FIFO", "i2-1g-10g", 0.7, "fifo"),
    ("I2 1G-10G / 70% / FQ", "i2-1g-10g", 0.7, "fq"),
    ("I2 1G-10G / 70% / SJF", "i2-1g-10g", 0.7, "sjf"),
    ("I2 1G-10G / 70% / LIFO", "i2-1g-10g", 0.7, "lifo"),
    ("I2 1G-10G / 70% / FQ+FIFO+", "i2-1g-10g", 0.7, "fq+fifo+"),
)


def check_original_setting(topology: str, scheduler: str) -> None:
    """Refuse a setting the paper's replay experiments do not define: a
    topology outside its five (a gadget, the long-lived dumbbell) or an
    original scheduler outside :data:`ORIGINALS`."""
    require_choice((topology,), PAPER_TOPOLOGIES, "topology")
    require_choice((scheduler,), ORIGINALS, "original scheduler")


@dataclass(frozen=True, slots=True)
class ReplayScenario:
    """One recording request: a setting, its original scheduler, a run."""

    name: str
    scenario: Scenario = field(
        default_factory=functools.partial(get_scenario, "i2-1g-10g"))
    scheduler: str = "random"
    duration: float = 0.25
    seed: int = 1
    bandwidth_scale: float = 0.01

    def __post_init__(self) -> None:
        check_original_setting(self.scenario.topology, self.scheduler)

    def network(self) -> Network:
        """A fresh, idle build of the setting's topology at this scale."""
        return build_scenario_network(self.scenario, self.bandwidth_scale)


def scenario_schedule_key(scenario: ReplayScenario) -> str:
    """The schedule-store key for a scenario's recorded original schedule.

    Derived from every recording input — each :class:`ReplayScenario`
    field and each field of its :class:`~repro.scenarios.Scenario` —
    *except* the two names: a display name never changes what gets
    recorded, so two requests that differ only in labelling (a Table 1
    row and a Figure 1 sweep point, say) share one cache entry.
    """
    payload = asdict(scenario)
    del payload["name"], payload["scenario"]["name"]
    return content_key("sched", payload)


def _recording_description(scenario: ReplayScenario) -> str:
    """Deterministic schedule description from recording inputs only.

    Deliberately not ``scenario.name``: the stored schedule must be
    byte-identical no matter which experiment triggered the recording.
    """
    setting = scenario.scenario
    return (
        f"{setting.topology}/{scenario.scheduler}"
        f"/util={setting.utilization:g}/seed={scenario.seed}"
        f"/dur={scenario.duration:g}/scale={scenario.bandwidth_scale:g}"
    )


@contextlib.contextmanager
def builder_network(
    setting: Scenario, scheduler: str, seed: int, horizon: float,
    bandwidth_scale: float,
) -> Iterator[Network]:
    """The prologue of both prerequisite builders (a recording here, a
    warm-up in :mod:`repro.experiments.branch`): ``setting``'s UDP
    network under ``scheduler``, traffic for ``horizon`` seconds.

    Context-independent by construction, which is what makes the built
    value cacheable: the block runs in the clean
    :class:`~repro.core.store.RunContext`, so the run's hub never
    observes it and its resume session never snapshots it; the
    packet-id counter is reset on entry (and again on exit), so pids
    never depend on what ran earlier in the process; and
    :data:`~repro.sim.engine.ENGINE_PERF` is paused, so a run's
    deterministic event count is the same whether its prerequisite was
    built here or loaded from a store.
    """
    with CLEAN.entered(), ENGINE_PERF.paused():
        reset_packet_ids()
        network, _flows = udp_network(setting, scheduler, seed, horizon,
                                      bandwidth_scale)
        yield network
        reset_packet_ids()


def build_recorded_schedule(scenario: ReplayScenario) -> RecordedSchedule:
    """Record the original schedule for a scenario (no replay, no cache)."""
    with builder_network(scenario.scenario, scenario.scheduler, scenario.seed,
                         scenario.duration, scenario.bandwidth_scale
                         ) as network, network:
        return record_schedule(
            network, description=_recording_description(scenario))


def get_recorded_schedule(scenario: ReplayScenario) -> RecordedSchedule:
    """The scenario's recorded schedule, through the run's
    :class:`~repro.core.trace_io.ScheduleStore` (recorded at most once per
    key) or, with none, recorded in memory."""
    return ScheduleStore.fetch(
        scenario_schedule_key(scenario),
        functools.partial(build_recorded_schedule, scenario),
    )


def prerequisites(kind: str, key: Callable, build: Callable,
                  requests: Iterable) -> dict:
    """A registry ``prerequisites`` value: under ``kind``, each request's
    store ``key`` → a picklable zero-arg ``build`` of it."""
    return {kind: {key(request): functools.partial(build, request)
                   for request in requests}}


def run_replay(scenario: ReplayScenario, mode: str = "lstf") -> ReplayResult:
    """Replay the scenario's recorded schedule under ``mode`` (one of
    :data:`repro.core.replay.REPLAY_MODES`).

    The schedule comes from :func:`get_recorded_schedule`, so every
    replay-mode leg of a sweep replays the same recording.  A caller
    that already holds a schedule calls
    :func:`~repro.core.replay.replay_schedule` on it directly.
    """
    return replay_schedule(get_recorded_schedule(scenario), scenario.network,
                           mode=mode)


def validate_row_indices(rows: object, count: int) -> tuple[int, ...]:
    """Check a ``rows`` option (one 0-based index or a tuple of them)
    against Table 1's ``count`` rows; raise a clean error, so a typo like
    ``--rows 99`` reports the valid range instead of an ``IndexError``.
    """
    indices = rows if isinstance(rows, tuple) else (rows,)
    for index in indices:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ConfigurationError(f"row index {index!r} is not an integer")
        if not 0 <= index < count:
            raise ConfigurationError(
                f"row index {index} out of range; Table 1 has {count} rows "
                f"(valid: 0..{count - 1})"
            )
    return indices


def spec_recording(spec: ExperimentSpec, scheduler: str) -> ReplayScenario:
    """The recording a single-setting spec asks for under ``scheduler``:
    the catalogue scenario ``spec.topology`` at ``spec.utilization``."""
    return ReplayScenario(
        name=f"{spec.label}/{scheduler}",
        scenario=get_scenario(spec.topology).with_(
            utilization=spec.utilization),
        scheduler=scheduler,
        duration=spec.duration,
        seed=spec.seed,
        bandwidth_scale=spec.bandwidth_scale,
    )


def table1_scenarios(spec: ExperimentSpec) -> list[ReplayScenario]:
    """The Table 1 rows a table1 spec runs, in the paper's order: all
    fourteen, or the ``rows`` option's (0-based indices) in the order
    given — each recorded over the spec's duration, seed and scale."""
    rows = spec.option("rows")
    indices = (range(len(TABLE1_ROWS)) if rows is None
               else validate_row_indices(rows, len(TABLE1_ROWS)))
    return [
        ReplayScenario(
            name=label,
            scenario=get_scenario(setting).with_(utilization=utilization),
            scheduler=scheduler,
            duration=spec.duration,
            seed=spec.seed,
            bandwidth_scale=spec.bandwidth_scale,
        )
        for label, setting, utilization, scheduler in map(
            TABLE1_ROWS.__getitem__, indices)
    ]


def schedule_prerequisites(scenarios: Iterable[ReplayScenario]) -> dict:
    """The recordings a driver that replays ``scenarios`` needs."""
    return prerequisites("schedule", scenario_schedule_key,
                         build_recorded_schedule, scenarios)


def _table1_prerequisites(spec: ExperimentSpec) -> dict:
    """Registry hook: the recordings a table1 spec needs."""
    return schedule_prerequisites(table1_scenarios(spec))


@register_experiment(
    "table1",
    help="Table 1: LSTF replayability across topologies, loads, schedulers",
    options=("rows",),
    params=("duration", "seeds", "bandwidth_scale", "replay_modes"),
    prerequisites=_table1_prerequisites,
)
def _run_table1(spec: ExperimentSpec) -> tuple[Table, dict]:
    mode = spec.replay_mode
    scenarios = table1_scenarios(spec)
    table = Table(
        ["scenario", "packets", "overdue", "overdue > T"],
        title=f"Table 1 — {mode} replayability",
    )
    for scenario in scenarios:
        # Record once, replay many: run_replay fetches the schedule
        # through the store, so every replay-mode leg of a sweep replays
        # the same recorded artifact.
        result = run_replay(scenario, mode=mode)
        table.add_row(
            [
                scenario.name,
                result.num_packets,
                result.fraction_overdue,
                result.fraction_overdue_beyond_threshold,
            ]
        )
    return table, {"mode": mode, "scenarios": [s.name for s in scenarios]}


def _fig1_scenarios(spec: ExperimentSpec) -> list[ReplayScenario]:
    """One scenario per original scheduler in a fig1 spec's sweep."""
    return [spec_recording(spec, scheduler)
            for scheduler in (spec.schedulers or ORIGINALS)]


def _fig1_prerequisites(spec: ExperimentSpec) -> dict:
    """Registry hook: the recordings a fig1 spec needs."""
    return schedule_prerequisites(_fig1_scenarios(spec))


@register_experiment(
    "fig1",
    help="Figure 1: LSTF:original queueing-delay-ratio quantiles",
    params=("duration", "seeds", "bandwidth_scale", "schedulers",
            "topology", "utilization", "replay_modes"),
    prerequisites=_fig1_prerequisites,
)
def _run_fig1(spec: ExperimentSpec) -> tuple[Table, dict]:
    import numpy as np

    mode = spec.replay_mode
    scenarios = _fig1_scenarios(spec)
    table = Table(
        ["original", "p10", "p50", "p90", "p99", "frac <= 1"],
        title=f"Figure 1 — {mode}:original queueing delay ratio",
    )
    for scenario in scenarios:
        ratios = run_replay(scenario, mode=mode).queueing_delay_ratios()
        q = np.quantile(ratios, [0.1, 0.5, 0.9, 0.99])
        table.add_row([scenario.scheduler, q[0], q[1], q[2], q[3],
                       float(np.mean(ratios <= 1.0 + 1e-9))])
    return table, {"mode": mode, "schedulers": [s.scheduler for s in scenarios]}
