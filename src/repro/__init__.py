"""repro — a reproduction of *Universal Packet Scheduling* (NSDI 2016).

Mittal, Agarwal, Ratnasamy, Shenker asked whether one packet scheduling
algorithm can replace all others, answered "almost", and identified Least
Slack Time First (LSTF) as the near-universal candidate.  This package
rebuilds their entire evaluation stack in pure Python:

* a deterministic store-and-forward network simulator (:mod:`repro.sim`),
* the scheduler zoo (:mod:`repro.schedulers`) — FIFO, LIFO, Random, SJF,
  SRPT, FQ, DRR, FIFO+, static priorities, LSTF, network-EDF, omniscient,
* the record/replay machinery of §2 (:mod:`repro.core.replay`),
* the practical slack heuristics of §3 (:mod:`repro.core.heuristics`),
* the paper's topologies, workloads, transports, metrics, the appendix
  counter-example gadgets (:mod:`repro.theory`), and experiment drivers
  for every table and figure (:mod:`repro.experiments`),
* a unified experiment API (:mod:`repro.api`): declarative specs, a
  registry of every paper artefact, a serial/parallel runner, and
  structured JSON artifacts,
* queue-backed distributed execution (:mod:`repro.cluster`): a durable
  SQLite job queue with crash-safe leases, worker daemons
  (``repro worker``), and ``run_many(..., queue_dir=...)`` /
  ``submit``/``status``/``gather`` for sharding sweeps across local
  processes — byte-identical to serial runs,
* record-once/replay-many (:mod:`repro.core.trace_io`): recorded
  schedules are content-addressed artifacts in a shared
  :class:`ScheduleStore`, ``ExperimentSpec(replay_modes=...)`` sweeps
  candidate UPSes over one recording, and ``run_many`` simulates each
  unique original schedule exactly once in every execution mode (see
  ``docs/replay.md``),
* simulate-once/branch-many (:mod:`repro.sim.checkpoint`): engine and
  network state checkpoint/restore, warm-up snapshots as hash-verified
  content-addressed artifacts in a shared :class:`CheckpointStore`, and
  a ``run_many`` pre-pass that warms each ``branch`` sweep's shared
  prefix exactly once (see ``docs/checkpointing.md``),
* declarative scenarios (:mod:`repro.scenarios`): registry-enumerable
  (topology × traffic pattern × flow-size distribution × impairments)
  bundles whose flow lists are deterministic functions of the seed, a
  ``scenarios`` sweep axis on :class:`ExperimentSpec`, and the
  ``scenario-matrix`` experiment reporting Jain fairness and link
  utilisation per leg (see ``docs/scenarios.md``).

Quick taste (see ``examples/quickstart.py`` for the narrated version)::

    from repro import ExperimentSpec, run, run_many

    # any registered artefact, one declarative call
    artifact = run(ExperimentSpec("table1", duration=0.1,
                                  options={"rows": (0, 13)}))
    print(artifact.table().render())
    artifact.save("artifacts/")              # JSON RunArtifact on disk

    # a seed sweep, fanned out over worker processes
    sweep = ExperimentSpec("fig3", seeds=(1, 2, 3, 4)).sweep()
    artifacts = run_many(sweep, workers=4)

The lower-level record/replay machinery stays first-class — build a
topology, record the original schedule, replay it under a candidate
universal scheduler::

    from repro import (
        build_dumbbell, poisson_flows, install_udp_flows, record_schedule,
        replay_schedule, PoissonWorkload, BoundedPareto,
    )

    make_net = lambda: build_dumbbell(num_pairs=4)
    net = make_net()
    flows = poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=BoundedPareto(),
        workload=PoissonWorkload(0.7, 50e6, duration=0.1),
    )
    install_udp_flows(net, flows)
    schedule = record_schedule(net)          # the original (FIFO) schedule
    result = replay_schedule(schedule, make_net, mode="lstf")
    print(result.summary())
"""

from repro.api import (
    ExperimentSpec,
    RunArtifact,
    load_artifact,
    register_experiment,
    run,
    run_many,
)

from repro.core.flow import Flow
from repro.core.heuristics import (
    ConstantSlack,
    FlowSizeSlack,
    SlackPolicy,
    VirtualClockSlack,
    parse_slack_policy,
)
from repro.core.packet import Packet
from repro.core.replay import (
    REPLAY_MODES,
    RecordedSchedule,
    ReplayResult,
    record_schedule,
    replay_schedule,
)
from repro.core.trace_io import (
    ScheduleStore,
    load_schedule,
    save_schedule,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ReplayError,
    ReproError,
    RoutingError,
    SchedulerError,
    SimulationError,
    WorkloadError,
)
from repro.obs import FlightRecorder, MetricsHub
from repro.scenarios import (
    Scenario,
    build_scenario_network,
    get_scenario,
    register_scenario,
    scenario_flows,
    scenario_names,
)
from repro.schedulers import (
    DrrScheduler,
    EdfScheduler,
    FifoPlusScheduler,
    FifoScheduler,
    FqScheduler,
    LifoScheduler,
    LstfScheduler,
    OmniscientScheduler,
    PriorityScheduler,
    RandomScheduler,
    Scheduler,
    SjfScheduler,
    SrptScheduler,
    TimetableScheduler,
    make_scheduler,
    scheduler_names,
)
from repro.schedulers.pheap import PHeap, PHeapLstfScheduler
from repro.sim.aqm import CoDelAqm, RedAqm
from repro.sim.checkpoint import (
    CheckpointStore,
    Snapshot,
    load_checkpoint,
    restore_snapshot,
    save_checkpoint,
    snapshot_network,
)
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.topology import (
    FatTreeConfig,
    Internet2Config,
    RocketFuelConfig,
    build_dumbbell,
    build_fattree,
    build_internet2,
    build_linear,
    build_parking_lot,
    build_rocketfuel,
    build_single_switch,
)
from repro.transport.tcp import TcpStats, install_tcp_flows
from repro.transport.udp import install_udp_flows
from repro.workload.distributions import (
    BoundedPareto,
    EmpiricalCdf,
    ExponentialSize,
    datacenter_distribution,
    distribution_names,
    internet_distribution,
    make_distribution,
    web_search_distribution,
)
from repro.workload.flows import PoissonWorkload, long_lived_flows, poisson_flows

__version__ = "1.0.0"

__all__ = [
    "BoundedPareto",
    "CheckpointError",
    "CheckpointStore",
    "CoDelAqm",
    "ConfigurationError",
    "ConstantSlack",
    "DrrScheduler",
    "EdfScheduler",
    "EmpiricalCdf",
    "Engine",
    "ExperimentSpec",
    "ExponentialSize",
    "FatTreeConfig",
    "FifoPlusScheduler",
    "FifoScheduler",
    "FlightRecorder",
    "Flow",
    "FlowSizeSlack",
    "FqScheduler",
    "Internet2Config",
    "LifoScheduler",
    "LstfScheduler",
    "MetricsHub",
    "Network",
    "OmniscientScheduler",
    "PHeap",
    "PHeapLstfScheduler",
    "Packet",
    "PoissonWorkload",
    "PriorityScheduler",
    "REPLAY_MODES",
    "RandomScheduler",
    "RecordedSchedule",
    "RedAqm",
    "ReplayError",
    "ReplayResult",
    "ReproError",
    "RocketFuelConfig",
    "RoutingError",
    "RunArtifact",
    "Scenario",
    "ScheduleStore",
    "Scheduler",
    "SchedulerError",
    "SimulationError",
    "SjfScheduler",
    "SlackPolicy",
    "Snapshot",
    "SrptScheduler",
    "TcpStats",
    "TimetableScheduler",
    "VirtualClockSlack",
    "WorkloadError",
    "build_dumbbell",
    "build_fattree",
    "build_internet2",
    "build_linear",
    "build_parking_lot",
    "build_rocketfuel",
    "build_scenario_network",
    "build_single_switch",
    "datacenter_distribution",
    "distribution_names",
    "get_scenario",
    "install_tcp_flows",
    "install_udp_flows",
    "internet_distribution",
    "load_artifact",
    "load_checkpoint",
    "load_schedule",
    "long_lived_flows",
    "make_distribution",
    "make_scheduler",
    "parse_slack_policy",
    "poisson_flows",
    "record_schedule",
    "register_experiment",
    "register_scenario",
    "replay_schedule",
    "restore_snapshot",
    "run",
    "run_many",
    "save_checkpoint",
    "save_schedule",
    "scenario_flows",
    "scenario_names",
    "scheduler_names",
    "snapshot_network",
    "web_search_distribution",
]
