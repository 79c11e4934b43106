"""Probes: each layer driven alone through public calls.

The traced pass says where a workload's time went; a probe says what one
operation of one layer costs with nothing else running, so a change that
claims "the hop path got cheaper" has a number that moves even when the
end-to-end share is small, and one that must *not* move when the change
is elsewhere (``sim.engine.chain_ns`` under a port-only change).

Every value is the median of :data:`REPEATS` runs, scaled by the
yardstick read just before and just after the probe, so values compare
across hosts the same way ``wall_norm_s`` does.  Run as a script it
prints one JSON line ``{name: {"value": v, "unit": u}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

SUITE_DIR = Path(__file__).resolve().parent
SRC_DIR = SUITE_DIR.parents[1] / "src"

REPEATS = 5

#: Problem sizes.  ``smoke`` only proves every probe runs.
SIZES = {
    "full": {"events": 100_000, "fan": 300_000, "hop_packets": 4_000,
             "deep": 100_000, "ops": 20_000, "jobs": 64, "artifacts": 50,
             "replay_duration": 0.5, "warmup": 0.5, "flows_duration": 2.0},
    "smoke": {"events": 2_000, "fan": 2_000, "hop_packets": 100,
              "deep": 500, "ops": 500, "jobs": 4, "artifacts": 2,
              "replay_duration": 0.02, "warmup": 0.02, "flows_duration": 0.05},
}

SCHEDULERS = ("fifo", "lstf", "sjf", "fq", "srpt", "random")
SHALLOW_DEPTH = 16
HOPS = 8

#: name -> unit, in report order; BENCHMARK.json's per_layer list repeats it.
PROBES: dict[str, str] = {
    "sim.engine.chain_ns": "ns",
    "sim.engine.fan_ns": "ns",
    "sim.engine.defer_ns": "ns",
    "sim.port.hop_ns": "ns",
    "sim.tracer.hop_ns": "ns",
    **{f"schedulers.{s}.{d}_ns": "ns"
       for s in SCHEDULERS for d in ("shallow", "deep")},
    "core.trace_io.put_s": "s",
    "core.trace_io.get_s": "s",
    "sim.checkpoint.snapshot_s": "s",
    "sim.checkpoint.restore_s": "s",
    "api.artifact_roundtrip_ms": "ms",
    "cluster.job_cycle_ms": "ms",
    "workload.generate_s": "s",
    "topology.build_s": "s",
}


def _median_time(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probes(scale: str = "full", scratch: str | None = None,
               yardstick_n: int | None = None) -> dict[str, dict[str, float | str]]:
    """Run every probe; ``{name: {"value": ..., "unit": ...}}``."""
    import random

    from yardstick import N, Y_REF, yardstick

    from repro import (
        BoundedPareto,
        CheckpointStore,
        Engine,
        ExperimentSpec,
        Internet2Config,
        Network,
        Packet,
        PoissonWorkload,
        RunArtifact,
        ScheduleStore,
        build_internet2,
        load_artifact,
        make_scheduler,
        poisson_flows,
    )
    from repro.cluster import JobQueue
    from repro.experiments import (
        BranchPrefix,
        ReplayScenario,
        build_branch_snapshot,
        build_recorded_schedule,
    )
    from repro.sim import Tracer

    sizes = SIZES[scale]
    values: dict[str, float] = {}

    def group(probes: dict[str, Callable[[], float]]) -> None:
        """Run related probes between two yardstick readings."""
        n = yardstick_n or N
        before = yardstick(n)
        raw = {name: probe() for name, probe in probes.items()}
        after = yardstick(n)
        factor = Y_REF / ((before + after) / 2.0 * N / n)
        values.update({name: value * factor for name, value in raw.items()})

    # -- engine: schedule->fire chain, deep heap, event->deferred pairs ----
    def chain() -> None:
        engine = Engine()
        count = sizes["events"]

        def tick() -> None:
            nonlocal count
            count -= 1
            if count:
                engine.schedule(1e-6, tick)

        engine.schedule(0.0, tick)
        engine.run()

    def fan() -> None:
        engine = Engine()
        sink = [].append
        n = sizes["fan"]
        for i in range(n):
            engine.schedule(((i * 7919) % n) * 1e-6, sink, i)
        engine.run()

    def defer() -> None:
        engine = Engine()
        count = sizes["events"]

        def decide() -> None:
            nonlocal count
            count -= 1
            if count:
                engine.schedule(1e-6, kick)

        def kick() -> None:
            engine.defer(decide)

        engine.schedule(0.0, kick)
        engine.run()

    group({
        "sim.engine.chain_ns":
            lambda: _median_time(chain) / sizes["events"] * 1e9,
        "sim.engine.fan_ns": lambda: _median_time(fan) / sizes["fan"] * 1e9,
        "sim.engine.defer_ns":
            lambda: _median_time(defer) / sizes["events"] * 1e9,
    })

    # -- port hop: packets down an 8-hop FIFO line, tracer off then on -----
    def line(tracer_on: bool) -> float:
        def run_line() -> None:
            network = Network(tracer=Tracer(enabled=tracer_on))
            names = ["a"] + [f"r{i}" for i in range(HOPS - 1)] + ["b"]
            network.add_host("a")
            network.add_host("b")
            for name in names[1:-1]:
                network.add_router(name)
            for u, v in zip(names, names[1:]):
                network.add_link(u, v, 1e9, 1e-6)
            for i in range(sizes["hop_packets"]):
                network.inject_at(i * 4e-6, Packet(i % 8, 1000, "a", "b", i * 4e-6))
            network.run()

        return _median_time(run_line) / (sizes["hop_packets"] * HOPS) * 1e9

    group({"sim.port.hop_ns": lambda: line(False),
           "sim.tracer.hop_ns": lambda: line(True)})
    values["sim.tracer.hop_ns"] -= values["sim.port.hop_ns"]

    # -- schedulers: push+pop at a standing depth --------------------------
    port_net = Network()
    port_net.add_host("a")
    port_net.add_host("b")
    port_net.add_link("a", "b", 8e6, 0.0)
    port = port_net.nodes["a"].ports["b"]

    def packets(count: int) -> list:
        batch = []
        for i in range(count):
            packet = Packet(i % 50, 1000, "a", "b", 0.0)
            packet.slack = ((i * 7919) % 1000) / 1000.0
            packet.flow_size = 1000 * (1 + (i * 31) % 64)
            packet.remaining_flow = packet.flow_size
            batch.append(packet)
        return batch

    def scheduler_ns(name: str, depth: int) -> float:
        ops = sizes["ops"]
        fill, churn = packets(depth), packets(ops)

        def run_ops() -> float:
            kwargs = {"rng": random.Random(1)} if name == "random" else {}
            scheduler = make_scheduler(name, **kwargs)
            scheduler.attach(port)
            for packet in fill:
                scheduler.push(packet, 0.0)
            start = time.perf_counter()
            for packet in churn:
                scheduler.push(packet, 0.0)
                scheduler.pop(1.0)
            return time.perf_counter() - start

        return statistics.median(run_ops() for _ in range(REPEATS)) / ops * 1e9

    for name in SCHEDULERS:
        group({
            f"schedulers.{name}.shallow_ns":
                lambda: scheduler_ns(name, SHALLOW_DEPTH),
            f"schedulers.{name}.deep_ns":
                lambda: scheduler_ns(name, sizes["deep"]),
        })

    with tempfile.TemporaryDirectory(prefix="probes-", dir=scratch) as tmp:
        root = Path(tmp)

        # -- stores: the replay-i2 recording, the branch-resume warm-up --
        # One key per repeat: ScheduleStore.get memoises per process, so
        # only the first read of a key parses.
        schedule = build_recorded_schedule(ReplayScenario(
            name="probe", duration=sizes["replay_duration"], seed=1))
        snapshot = build_branch_snapshot(BranchPrefix(
            scheduler="fq", utilization=0.5, warmup=sizes["warmup"]))
        schedules = ScheduleStore(root / "schedules")
        checkpoints = CheckpointStore(root / "checkpoints")
        put_keys, get_keys = iter(range(REPEATS)), iter(range(REPEATS))
        group({
            "core.trace_io.put_s": lambda: _median_time(
                lambda: schedules.put(f"probe-{next(put_keys)}", schedule)),
            "core.trace_io.get_s": lambda: _median_time(
                lambda: schedules.get(f"probe-{next(get_keys)}")),
            "sim.checkpoint.snapshot_s": lambda: _median_time(
                lambda: checkpoints.put("probe", snapshot)),
            "sim.checkpoint.restore_s": lambda: _median_time(
                lambda: checkpoints.get("probe")),
        })

        # -- artifact save+load; broker submit+claim+report, no job body --
        def artifacts() -> None:
            for i in range(sizes["artifacts"]):
                spec = ExperimentSpec("table1", seeds=(i + 1,),
                                      options={"rows": (0,)})
                artifact = RunArtifact(
                    spec=spec, title="probe", headers=["a", "b", "c"],
                    rows=[["row", i, 0.5]], metadata={"engine_events": i})
                load_artifact(artifact.save(root / "artifacts"))

        job_specs = ExperimentSpec(
            "table1", seeds=tuple(range(1, sizes["jobs"] + 1)),
            options={"rows": (0,)}).sweep()
        queue_ids = iter(range(REPEATS))

        def job_cycle() -> None:
            queue = JobQueue(root / f"queue-{next(queue_ids)}")
            queue.submit(job_specs)
            while jobs := queue.claim_batch("probe", 4):
                queue.report_batch("probe", [(j.id, None, False) for j in jobs])

        # -- workload generation and topology build (with route trees) ---
        config = Internet2Config(edges_per_core=2, bandwidth_scale=0.01)
        hosts = [h.name for h in build_internet2(config).hosts]

        def generate() -> None:
            poisson_flows(
                hosts=hosts,
                sizes=BoundedPareto(alpha=1.2, low=1_500, high=1_000_000),
                workload=PoissonWorkload(0.7, 1e7, seed=1,
                                         duration=sizes["flows_duration"]))

        def build() -> None:
            network = build_internet2(config)
            for dst in hosts[1:]:
                network.route(hosts[0], dst)

        group({
            "api.artifact_roundtrip_ms":
                lambda: _median_time(artifacts) / sizes["artifacts"] * 1e3,
            "cluster.job_cycle_ms":
                lambda: _median_time(job_cycle) / sizes["jobs"] * 1e3,
            "workload.generate_s": lambda: _median_time(generate),
            "topology.build_s": lambda: _median_time(build),
        })

    return {name: {"value": values[name], "unit": unit}
            for name, unit in PROBES.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="full", choices=sorted(SIZES))
    parser.add_argument("--scratch", default=None)
    parser.add_argument("--yardstick-n", type=int, default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(SRC_DIR), str(SUITE_DIR)]
    print(json.dumps(run_probes(args.scale, args.scratch, args.yardstick_n)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
