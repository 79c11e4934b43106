"""The suite's six workloads, each a paper artefact driven through the
public ``repro`` surface (names from ``repro.__all__`` or a subpackage's
``__all__`` only -- README.md lists them; a later PR that renames one
changes this file in a ``benchmark`` issue, not in passing).

A workload is ``prepare(name, seed, scale, scratch) -> thunk``.
``prepare`` is set-up (spec and scenario construction; counted in
``setup_s``), the thunk is the timed region, and what it returns is
digested *after* the clock stops into ``{"legs": {label: simulated
results}, "events": int}`` -- the part compared with ``golden.json`` plus
the run's exact engine-event count.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro import (
    ExperimentSpec,
    Scenario,
    build_scenario_network,
    install_udp_flows,
    make_scheduler,
    record_schedule,
    replay_schedule,
    run,
    run_many,
    scenario_flows,
)
from repro.cluster import JobQueue, Worker, gather, submit
from repro.sim import ENGINE_PERF

__all__ = ["SCALES", "WORKLOADS", "WHY", "legs_expected", "prepare"]

#: Simulated sizes per scale.  ``full`` is what the numbers are reported
#: at; ``smoke`` exists so the tier-1 smoke test can drive every code
#: path of the suite in a few seconds.  Shorten durations, never rounds.
SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "replay_duration": 0.5,
        "fct_duration": 0.2,
        "incast_duration": 0.01,
        "incast_hosts": 32,
        "sweep_seeds": 12,
        "sweep_duration": 0.02,
        "branch_legs": 12,
        "branch_warmup": 0.5,
        "branch_duration": 0.05,
        "branch_policy": "20000ev",
    },
    "smoke": {
        "replay_duration": 0.02,
        "fct_duration": 0.02,
        "incast_duration": 0.005,
        "incast_hosts": 4,
        "sweep_seeds": 1,
        "sweep_duration": 0.01,
        "branch_legs": 2,
        "branch_warmup": 0.02,
        "branch_duration": 0.01,
        "branch_policy": "2000ev",
    },
}

#: Why each workload exists (one line; BENCHMARK.json and README.md
#: repeat these).
WHY: dict[str, str] = {
    "replay-i2": "Table 1 row 0: record Internet2/70%/Random, replay under "
                 "LSTF - shallow queues, so the hop path, engine and tracer "
                 "dominate; the schedule goes through ScheduleStore",
    "replay-i2-obs": "the same spec with obs=True - prices telemetry when "
                     "armed; replay-i2 is its bypass",
    "fct-tcp": "Fig 2, four schemes: closed-loop TCP, finite buffers, drops, "
               "RTO timers, ACKs - the only workload where transport and the "
               "drop path matter",
    "incast-deep": "32-to-1 incast recorded under SJF, replayed under lstf and "
                   "lstf-preemptive: one port, standing queue of thousands - "
                   "depth, not hop count; LSTF's <=2-congestion-point theorem "
                   "is asserted",
    "sweep-queue": "table1 row 0 x 4 replay modes x 12 seeds of tiny legs "
                   "through submit/Worker.drain/gather - the largest share "
                   "per-leg fixed costs and the broker will ever have",
    "branch-resume": "12 branch legs off one shared warm-up with a checkpoint "
                     "policy armed: simulate-once pre-pass, CheckpointStore, "
                     "ResumeSession and Engine.run_bounded",
}

WORKLOADS: tuple[str, ...] = tuple(WHY)

SWEEP_MODES = ("lstf", "edf", "priority", "omniscient")
INCAST_MODES = ("lstf", "lstf-preemptive")

Thunk = Callable[[], dict[str, Any]]


def _leg_label(spec: ExperimentSpec) -> str:
    """A leg's key in ``golden.json``: stable under new spec fields."""
    parts = [spec.experiment, f"seed={spec.seed}"]
    if spec.replay_modes:
        parts.append(f"mode={spec.replay_mode}")
    return "/".join(parts)


def _artifact_leg(artifact) -> dict[str, Any]:
    """The simulated part of an artifact (no timings, no event count)."""
    return {"headers": list(artifact.headers),
            "rows": [list(row) for row in artifact.rows]}


def _replay_i2(seed: int, sizes: dict, scratch: Path, obs: bool) -> Thunk:
    spec = ExperimentSpec("table1", duration=sizes["replay_duration"],
                          seeds=(seed,), options={"rows": (0,)})

    def thunk() -> dict[str, Any]:
        artifact = run(spec, out_dir=scratch, obs=obs)
        return {"legs": {_leg_label(spec): _artifact_leg(artifact)},
                "events": artifact.metadata["engine_events"]}

    return thunk


def _fct_tcp(seed: int, sizes: dict, scratch: Path) -> Thunk:
    spec = ExperimentSpec("fig2", duration=sizes["fct_duration"], seeds=(seed,))

    def thunk() -> dict[str, Any]:
        artifact = run(spec)
        return {"legs": {_leg_label(spec): _artifact_leg(artifact)},
                "events": artifact.metadata["engine_events"]}

    return thunk


def _incast_deep(seed: int, sizes: dict, scratch: Path) -> Thunk:
    scenario = Scenario(name="incast-deep", pattern="incast",
                        topology="single-switch",
                        hosts=sizes["incast_hosts"], flows_per_host=4,
                        size_cap=200_000)

    def factory():
        return build_scenario_network(scenario)

    def thunk() -> dict[str, Any]:
        ENGINE_PERF.reset()
        network = factory()
        routers = {router.name for router in network.routers}
        network.install_schedulers(
            lambda node, _peer: make_scheduler("sjf") if node in routers else None
        )
        flows = scenario_flows(scenario, seed=seed,
                               duration=sizes["incast_duration"])
        install_udp_flows(network, flows)
        schedule = record_schedule(network, description="incast-deep")
        leg: dict[str, Any] = {"schedule_hash": schedule.content_hash(),
                               "packets": len(schedule)}
        for mode in INCAST_MODES:
            result = replay_schedule(schedule, factory, mode=mode)
            leg[mode] = {"fraction_overdue": result.fraction_overdue,
                         "max_lateness": result.max_lateness}
        return {"legs": {"incast-deep": leg}, "events": ENGINE_PERF.events}

    return thunk


def _sweep_queue(seed: int, sizes: dict, scratch: Path) -> Thunk:
    specs = ExperimentSpec(
        "table1", duration=sizes["sweep_duration"],
        seeds=tuple(range(seed, seed + sizes["sweep_seeds"])),
        replay_modes=SWEEP_MODES, options={"rows": (0,)},
    ).sweep()
    queue_dir = scratch / "queue"

    def thunk() -> dict[str, Any]:
        job_ids = submit(specs, queue_dir)
        Worker(JobQueue(queue_dir), batch_size=4).drain()
        artifacts = gather(queue_dir, job_ids, timeout=120.0)
        return _sweep_digest(artifacts)

    return thunk


def _branch_resume(seed: int, sizes: dict, scratch: Path) -> Thunk:
    specs = ExperimentSpec(
        "branch", duration=sizes["branch_duration"], utilization=0.5,
        seeds=tuple(range(seed, seed + sizes["branch_legs"])),
        schedulers=("fq",), options={"warmup": sizes["branch_warmup"]},
    ).sweep()

    def thunk() -> dict[str, Any]:
        artifacts = run_many(specs, out_dir=scratch,
                             checkpoint_policy=sizes["branch_policy"])
        return _sweep_digest(artifacts)

    return thunk


def _sweep_digest(artifacts) -> dict[str, Any]:
    return {"legs": {_leg_label(a.spec): _artifact_leg(a) for a in artifacts},
            "events": sum(a.metadata["engine_events"] for a in artifacts)}


def legs_expected(name: str, scale: str) -> int:
    """How many legs one repeat of ``name`` attempts."""
    sizes = SCALES[scale]
    if name == "sweep-queue":
        return sizes["sweep_seeds"] * len(SWEEP_MODES)
    if name == "branch-resume":
        return sizes["branch_legs"]
    return 1


def prepare(name: str, seed: int, scale: str, scratch: Path) -> Thunk:
    """Set one workload up; the returned thunk is the timed region."""
    sizes = SCALES[scale]
    if name == "replay-i2":
        return _replay_i2(seed, sizes, scratch, obs=False)
    if name == "replay-i2-obs":
        return _replay_i2(seed, sizes, scratch, obs=True)
    if name == "fct-tcp":
        return _fct_tcp(seed, sizes, scratch)
    if name == "incast-deep":
        return _incast_deep(seed, sizes, scratch)
    if name == "sweep-queue":
        return _sweep_queue(seed, sizes, scratch)
    if name == "branch-resume":
        return _branch_resume(seed, sizes, scratch)
    raise SystemExit(f"unknown workload {name!r}; one of {WORKLOADS}")
