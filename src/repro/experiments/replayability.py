"""Replayability experiments: Table 1, Figure 1, and the §2.3 ablations.

A :class:`ReplayScenario` names one Table 1 row: a topology variant, an
"original" scheduling algorithm, and a load level.  :func:`run_replay`
records the original schedule under that configuration and replays it with
a candidate UPS, returning the two Table 1 columns (fraction overdue, and
overdue by more than one bottleneck transmission time ``T``) plus the
queueing-delay ratios behind Figure 1.

Record once, replay many: recording the original schedule is the
expensive half of every replay experiment, and it depends only on the
scenario's *recording inputs* (topology, original scheduler, load, seed,
duration, scale) — never on the replay mode or slack policy under test.
:func:`get_recorded_schedule` therefore answers recordings through the
active :class:`~repro.core.trace_io.ScheduleStore` when the runner has
one open (``run_many`` over a ``replay_modes`` sweep, ``--out`` caches,
queue workers), keyed by :func:`scenario_schedule_key`; each unique
schedule simulates once and every replay-mode leg reloads it.
Recordings are pid-stream independent (:func:`build_recorded_schedule`
resets the packet-id counter) and excluded from the run's deterministic
``engine_events`` accounting, so a leg's artifact is byte-identical
whether its schedule was recorded in-process or fetched from the store.

Scale: the defaults run every scenario at 1/100th of the paper's
bandwidths on a 20-host Internet2 (2 edge routers per core router instead
of 10).  Utilisation — the quantity the paper sweeps — is set against each
scenario's bottleneck, so scheduling behaviour is preserved; see
docs/paper-map.md.  Passing ``bandwidth_scale=1.0, edges_per_core=10,
duration=...`` reproduces the full-scale setup if you have the hours.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable

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
from repro.core.trace_io import active_schedule_store
from repro.errors import ConfigurationError
from repro.sim.engine import ENGINE_PERF
from repro.schedulers import (
    FifoPlusScheduler,
    FifoScheduler,
    FqScheduler,
    LifoScheduler,
    RandomScheduler,
    SjfScheduler,
)
from repro.sim.network import Network
from repro.topology.fattree import FatTreeConfig, build_fattree
from repro.topology.internet2 import Internet2Config, build_internet2
from repro.topology.rocketfuel import RocketFuelConfig, build_rocketfuel
from repro.transport.udp import install_udp_flows
from repro.units import GBPS
from repro.workload.distributions import BoundedPareto, SizeDistribution
from repro.workload.flows import PoissonWorkload, poisson_flows

__all__ = [
    "ReplayOutcome",
    "ReplayScenario",
    "build_recorded_schedule",
    "get_recorded_schedule",
    "run_replay",
    "scenario_from_spec",
    "scenario_schedule_key",
    "schedule_prerequisites",
    "table1_scenarios",
    "validate_row_indices",
]

TOPOLOGIES = ("i2-1g-10g", "i2-1g-1g", "i2-10g-10g", "rocketfuel", "fattree")
ORIGINALS = ("random", "fifo", "fq", "sjf", "lifo", "fq+fifo+")


@dataclass(frozen=True, slots=True)
class ReplayScenario:
    """One Table 1 row."""

    name: str
    topology: str = "i2-1g-10g"
    scheduler: str = "random"
    utilization: float = 0.7
    duration: float = 0.25
    seed: int = 1
    bandwidth_scale: float = 0.01
    edges_per_core: int = 2
    rocketfuel_hosts: int = 20
    fattree_k: int = 4
    max_flow_bytes: int = 1_000_000

    def with_(self, **kwargs) -> "ReplayScenario":
        return replace(self, **kwargs)


def _size_distribution(scenario: ReplayScenario) -> SizeDistribution:
    """Heavy-tailed sizes, truncated so laptop-scale runs stay bounded."""
    return BoundedPareto(alpha=1.2, low=1_500, high=scenario.max_flow_bytes)


def _i2_config(scenario: ReplayScenario) -> Internet2Config:
    base = Internet2Config(
        edges_per_core=scenario.edges_per_core,
        bandwidth_scale=scenario.bandwidth_scale,
    )
    if scenario.topology == "i2-1g-1g":
        return replace(base, host_bw=1 * GBPS)
    if scenario.topology == "i2-10g-10g":
        return replace(base, access_bw=10 * GBPS)
    return base


def topology_factory(scenario: ReplayScenario) -> Callable[[], Network]:
    """A zero-argument builder for the scenario's topology."""
    if scenario.topology.startswith("i2"):
        cfg = _i2_config(scenario)
        return lambda: build_internet2(cfg)
    if scenario.topology == "rocketfuel":
        cfg = RocketFuelConfig(
            num_hosts=scenario.rocketfuel_hosts,
            bandwidth_scale=scenario.bandwidth_scale,
        )
        return lambda: build_rocketfuel(cfg)
    if scenario.topology == "fattree":
        cfg = FatTreeConfig(
            k=scenario.fattree_k, bandwidth_scale=scenario.bandwidth_scale
        )
        return lambda: build_fattree(cfg)
    raise ConfigurationError(
        f"unknown topology {scenario.topology!r}; choose from {TOPOLOGIES}"
    )


def reference_bandwidth(scenario: ReplayScenario) -> float:
    """The bandwidth ``utilization`` is measured against (the bottleneck a
    typical packet crosses — access links normally, the slow core links
    when the access network outruns the core)."""
    scale = scenario.bandwidth_scale
    if scenario.topology == "i2-10g-10g":
        cfg = _i2_config(scenario)
        return cfg.core_bw_slow * scale
    if scenario.topology.startswith("i2"):
        cfg = _i2_config(scenario)
        return min(cfg.access_bw, cfg.host_bw) * scale
    if scenario.topology == "rocketfuel":
        cfg = RocketFuelConfig(bandwidth_scale=scale)
        return min(cfg.access_bw, cfg.core_bw_slow) * scale
    if scenario.topology == "fattree":
        return FatTreeConfig(k=scenario.fattree_k, bandwidth_scale=scale).bottleneck_bw
    raise ConfigurationError(f"unknown topology {scenario.topology!r}")


def _original_scheduler_factory(scenario: ReplayScenario):
    """Per-port scheduler factory for the *original* run (router ports
    only; host uplinks stay FIFO, i.e. the natural pacing of a NIC)."""
    rng = random.Random(scenario.seed)
    kind = scenario.scheduler

    makers = {
        "random": lambda: RandomScheduler(rng),
        "fifo": FifoScheduler,
        "fq": FqScheduler,
        "sjf": SjfScheduler,
        "lifo": LifoScheduler,
    }

    if kind in makers:
        make = makers[kind]

        def factory(node: str, _neighbor: str):
            if node.startswith("h"):  # host uplink: keep FIFO
                return None
            return make()

        return factory

    if kind == "fq+fifo+":
        # §2.3: half the routers run FIFO+, the other half fair queueing.
        # The split must be deterministic across processes (str.hash is
        # salted), so key it on a stable digest of the node name.
        def factory(node: str, _neighbor: str):
            if node.startswith("h"):
                return None
            stable = sum(node.encode())
            return FqScheduler() if stable % 2 == 0 else FifoPlusScheduler()

        return factory

    raise ConfigurationError(
        f"unknown original scheduler {kind!r}; choose from {ORIGINALS}"
    )


@dataclass(slots=True)
class ReplayOutcome:
    """A Table 1 row's worth of results."""

    scenario: ReplayScenario
    mode: str
    schedule: RecordedSchedule
    result: ReplayResult

    @property
    def fraction_overdue(self) -> float:
        return self.result.fraction_overdue

    @property
    def fraction_overdue_beyond_t(self) -> float:
        return self.result.fraction_overdue_beyond_threshold

    def row(self) -> tuple[str, str, str, int, float, float]:
        s = self.scenario
        return (
            s.topology,
            f"{s.utilization:.0%}",
            s.scheduler,
            len(self.schedule),
            self.fraction_overdue,
            self.fraction_overdue_beyond_t,
        )


def scenario_schedule_key(scenario: ReplayScenario) -> str:
    """The schedule-store key for a scenario's recorded original schedule.

    Derived from every :class:`ReplayScenario` field *except* ``name``:
    the display name never changes what gets recorded, so two scenarios
    that differ only in labelling (a Table 1 row and a Figure 1 sweep
    point, say) share one cache entry.
    """
    payload = {
        f.name: getattr(scenario, f.name)
        for f in fields(ReplayScenario)
        if f.name != "name"
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return f"sched-{digest[:12]}"


def _recording_description(scenario: ReplayScenario) -> str:
    """Deterministic schedule description from recording inputs only.

    Deliberately not ``scenario.name``: the stored schedule must be
    byte-identical no matter which experiment triggered the recording.
    """
    return (
        f"{scenario.topology}/{scenario.scheduler}"
        f"/util={scenario.utilization:g}/seed={scenario.seed}"
        f"/dur={scenario.duration:g}/scale={scenario.bandwidth_scale:g}"
    )


def build_recorded_schedule(scenario: ReplayScenario) -> RecordedSchedule:
    """Record the original schedule for a scenario (no replay, no cache).

    Context-independent by construction, which is what makes recordings
    cacheable: the packet-id counter is reset so the recorded pids never
    depend on what ran earlier in the process, and the recording's
    engine work is excluded from :data:`~repro.sim.engine.ENGINE_PERF`
    so a run's deterministic event count is the same whether its
    schedule was recorded here or loaded from a
    :class:`~repro.core.trace_io.ScheduleStore`.
    """
    with ENGINE_PERF.paused():
        reset_packet_ids()
        factory = topology_factory(scenario)
        network = factory()
        network.install_schedulers(_original_scheduler_factory(scenario))
        flows = poisson_flows(
            hosts=[h.name for h in network.hosts],
            sizes=_size_distribution(scenario),
            workload=PoissonWorkload(
                utilization=scenario.utilization,
                reference_bandwidth=reference_bandwidth(scenario),
                duration=scenario.duration,
                seed=scenario.seed,
            ),
        )
        install_udp_flows(network, flows)
        schedule = record_schedule(
            network, description=_recording_description(scenario)
        )
        reset_packet_ids()
    return schedule


def get_recorded_schedule(scenario: ReplayScenario) -> RecordedSchedule:
    """The scenario's recorded schedule — cached when a store is active.

    With an active :class:`~repro.core.trace_io.ScheduleStore` (the
    runner opens one around every driver call that has somewhere durable
    to put it), the schedule is answered from the store and recorded at
    most once per key; without one it is recorded in memory, the
    pre-store behaviour.
    """
    store = active_schedule_store()
    if store is None:
        return build_recorded_schedule(scenario)
    return store.get_or_build(
        scenario_schedule_key(scenario),
        functools.partial(build_recorded_schedule, scenario),
    )


def run_replay(
    scenario: ReplayScenario,
    mode: str = "lstf",
    schedule: RecordedSchedule | None = None,
    **replay_kwargs,
) -> ReplayOutcome:
    """Record (or reuse) the original schedule and replay it under ``mode``.

    Parameters
    ----------
    scenario:
        The Table 1 row to run.
    mode:
        One of :data:`repro.core.replay.REPLAY_MODES`.
    schedule:
        A pre-recorded schedule to reuse.  When given, *no recording
        happens* — this is the record-once path: record (or load) the
        scenario's schedule once, then call ``run_replay(schedule=...)``
        for every mode under test.  ``None`` fetches the schedule via
        :func:`get_recorded_schedule`.
    replay_kwargs:
        Forwarded to :func:`repro.core.replay.replay_schedule`.
    """
    if schedule is None:
        schedule = get_recorded_schedule(scenario)
    result = replay_schedule(
        schedule, topology_factory(scenario), mode=mode, **replay_kwargs
    )
    return ReplayOutcome(scenario=scenario, mode=mode, schedule=schedule, result=result)


def table1_scenarios(
    duration: float = 0.25, seed: int = 1, bandwidth_scale: float = 0.01
) -> list[ReplayScenario]:
    """The thirteen rows of Table 1, in the paper's order."""
    base = ReplayScenario(
        name="", duration=duration, seed=seed, bandwidth_scale=bandwidth_scale
    )
    rows = [
        base.with_(name="I2 1G-10G / 70% / Random"),
        base.with_(name="I2 1G-10G / 10% / Random", utilization=0.10),
        base.with_(name="I2 1G-10G / 30% / Random", utilization=0.30),
        base.with_(name="I2 1G-10G / 50% / Random", utilization=0.50),
        base.with_(name="I2 1G-10G / 90% / Random", utilization=0.90),
        base.with_(name="I2 1G-1G / 70% / Random", topology="i2-1g-1g"),
        base.with_(name="I2 10G-10G / 70% / Random", topology="i2-10g-10g"),
        base.with_(name="RocketFuel / 70% / Random", topology="rocketfuel"),
        base.with_(name="Datacenter / 70% / Random", topology="fattree"),
        base.with_(name="I2 1G-10G / 70% / FIFO", scheduler="fifo"),
        base.with_(name="I2 1G-10G / 70% / FQ", scheduler="fq"),
        base.with_(name="I2 1G-10G / 70% / SJF", scheduler="sjf"),
        base.with_(name="I2 1G-10G / 70% / LIFO", scheduler="lifo"),
        base.with_(name="I2 1G-10G / 70% / FQ+FIFO+", scheduler="fq+fifo+"),
    ]
    return rows


def validate_row_indices(rows: Iterable[int], count: int) -> tuple[int, ...]:
    """Check 0-based row indices against ``count``; raise a clean error.

    Shared by the Table 1 driver and the CLI dispatcher so a typo like
    ``--rows 99`` reports the valid range instead of an ``IndexError``.
    """
    indices = tuple(rows)
    for index in indices:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ConfigurationError(f"row index {index!r} is not an integer")
        if not 0 <= index < count:
            raise ConfigurationError(
                f"row index {index} out of range; Table 1 has {count} rows "
                f"(valid: 0..{count - 1})"
            )
    return indices


def scenario_from_spec(spec: ExperimentSpec, default_scheduler: str = "random") -> ReplayScenario:
    """The :class:`ReplayScenario` a spec describes (single-scenario runs)."""
    return ReplayScenario(
        name=spec.label,
        topology=spec.topology,
        scheduler=spec.schedulers[0] if spec.schedulers else default_scheduler,
        utilization=spec.utilization,
        duration=spec.duration,
        seed=spec.seed,
        bandwidth_scale=spec.bandwidth_scale,
    )


def _table1_row_scenarios(spec: ExperimentSpec) -> list[ReplayScenario]:
    """The scenarios a table1 spec runs (honouring the ``rows`` option)."""
    scenarios = table1_scenarios(
        duration=spec.duration, seed=spec.seed, bandwidth_scale=spec.bandwidth_scale
    )
    rows_opt = spec.option("rows")
    if rows_opt is not None:
        indices = validate_row_indices(
            rows_opt if isinstance(rows_opt, tuple) else (rows_opt,),
            len(scenarios),
        )
        scenarios = [scenarios[i] for i in indices]
    return scenarios


def schedule_prerequisites(scenarios: Iterable[ReplayScenario]) -> dict:
    """The registry ``prerequisites`` value for drivers that replay
    ``scenarios``: one recording each, keyed into the schedule store."""
    return {"schedule": {
        scenario_schedule_key(s): functools.partial(build_recorded_schedule, s)
        for s in scenarios
    }}


def _table1_prerequisites(spec: ExperimentSpec) -> dict:
    """Registry hook: the recordings a table1 spec needs."""
    return schedule_prerequisites(_table1_row_scenarios(spec))


@register_experiment(
    "table1",
    help="Table 1: LSTF replayability across topologies, loads, schedulers",
    options=("rows",),
    params=("duration", "seeds", "bandwidth_scale", "replay_modes"),
    prerequisites=_table1_prerequisites,
)
def _run_table1(spec: ExperimentSpec) -> tuple[Table, dict]:
    mode = spec.replay_mode
    scenarios = _table1_row_scenarios(spec)
    table = Table(
        ["scenario", "packets", "overdue", "overdue > T"],
        title=f"Table 1 — {mode} replayability",
    )
    for scenario in scenarios:
        # Record once, replay many: fetch the schedule through the store
        # and hand it to run_replay explicitly, so every replay-mode leg
        # of a sweep replays the same recorded artifact.
        schedule = get_recorded_schedule(scenario)
        outcome = run_replay(scenario, mode=mode, schedule=schedule)
        table.add_row(
            [
                scenario.name,
                outcome.result.num_packets,
                outcome.fraction_overdue,
                outcome.fraction_overdue_beyond_t,
            ]
        )
    return table, {"mode": mode, "scenarios": [s.name for s in scenarios]}


def _fig1_scenarios(spec: ExperimentSpec) -> list[ReplayScenario]:
    """One scenario per original scheduler in a fig1 spec's sweep."""
    return [
        scenario_from_spec(
            spec.with_(name=f"fig1/{scheduler}", schedulers=(scheduler,))
        )
        for scheduler in (spec.schedulers or ORIGINALS)
    ]


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
        schedule = get_recorded_schedule(scenario)
        outcome = run_replay(scenario, mode=mode, schedule=schedule)
        ratios = outcome.result.queueing_delay_ratios()
        q = np.quantile(ratios, [0.1, 0.5, 0.9, 0.99])
        table.add_row([scenario.scheduler, q[0], q[1], q[2], q[3],
                       float(np.mean(ratios <= 1.0 + 1e-9))])
    return table, {"mode": mode, "schedulers": [s.scheduler for s in scenarios]}
