"""Branch-from-checkpoint sweeps: warm one network up, branch many legs.

The counterpart of record-once/replay-many for *open-loop* sweeps.  A
:class:`BranchPrefix` names a sweep's shared warm-up: a topology, an
original scheduler, a load level, and a warm-up horizon.  Every leg of a
``branch`` sweep (one per seed) continues the same warmed-up network with
its own fresh traffic, so the expensive prefix — typically much longer
than the per-leg delta — needs to be simulated exactly once per sweep:

* :func:`build_branch_snapshot` simulates the prefix from t=0 and
  captures it as a :class:`~repro.sim.checkpoint.Snapshot`;
* :func:`get_branch_network` answers warm-ups through the run's
  :class:`~repro.sim.checkpoint.CheckpointStore` when the runner has one
  open (``run_many`` sweeps, ``--out`` caches, queue workers), keyed by
  :func:`branch_checkpoint_key`; without a store it builds in memory and
  branches the live graph — the pre-checkpoint behaviour.

Builds share the recording's prologue
(:func:`~repro.experiments.replayability.builder_network`): they are
pid-stream independent (the packet-id counter is reset before the
warm-up and captured with the snapshot) and excluded from the run's
deterministic ``engine_events`` accounting (the restore credit is the
only path warm-up events take into the accumulator), so a leg's artifact
is byte-identical whether its prefix was simulated in-process or fetched
from the store — the invariant the branch byte-identity tests enforce
across schedulers × seeds × executors.

Leg flows are offset into a disjoint flow-id range (:data:`LEG_FID_BASE`)
and shifted to start after the warm-up horizon, so per-flow schedulers
(FQ, DRR) never merge a leg flow into a warm-up flow's queue and leg
packets are cleanly separable in the tracer.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.store import content_key
from repro.errors import ConfigurationError
from repro.experiments.replayability import (
    builder_network,
    check_original_setting,
    prerequisites,
)
from repro.metrics.delay import percentile
from repro.scenarios import Scenario, get_scenario, scenario_flows
from repro.sim.checkpoint import (
    CheckpointStore,
    Snapshot,
    restore_snapshot,
    snapshot_network,
)
from repro.sim.network import Network
from repro.transport.udp import install_udp_flows

__all__ = [
    "BranchPrefix",
    "branch_checkpoint_key",
    "build_branch_snapshot",
    "get_branch_network",
    "prefix_from_spec",
]

#: Default shared warm-up horizon (simulated seconds).
DEFAULT_WARMUP = 0.05

#: Branch-leg flow ids start here — far above any warm-up fid — so
#: per-flow schedulers never alias a leg flow onto a warm-up flow's
#: queue, and leg packets are identifiable by ``flow_id`` alone.
LEG_FID_BASE = 1_000_000


@dataclass(frozen=True, slots=True)
class BranchPrefix:
    """One sweep's shared warm-up: everything the checkpoint depends on."""

    topology: str = "i2-1g-10g"
    scheduler: str = "fifo"
    utilization: float = 0.7
    warmup: float = DEFAULT_WARMUP
    bandwidth_scale: float = 0.01
    warmup_seed: int = 1

    def __post_init__(self) -> None:
        check_original_setting(self.topology, self.scheduler)

    def with_(self, **kwargs) -> "BranchPrefix":
        return replace(self, **kwargs)

    @property
    def setting(self) -> Scenario:
        """The registered scenario ``topology`` names, at ``utilization``."""
        return get_scenario(self.topology).with_(utilization=self.utilization)


def branch_checkpoint_key(prefix: BranchPrefix) -> str:
    """The checkpoint-store key for a prefix's warmed-up network.

    Derived from every :class:`BranchPrefix` field, so any sweep whose
    legs share (topology, scheduler, load, horizon, warm-up seed)
    addresses the same cache entry.
    """
    return content_key("ckpt", asdict(prefix))


def build_branch_snapshot(prefix: BranchPrefix) -> Snapshot:
    """Simulate the warm-up prefix from t=0 and capture it (no cache).

    The snapshot carries the warm-up's deterministic event count, which
    :func:`~repro.sim.checkpoint.restore_snapshot` credits, so a leg's
    ``engine_events`` is the same whether the prefix was simulated here
    or loaded from a :class:`~repro.sim.checkpoint.CheckpointStore`.
    """
    with builder_network(prefix.setting, prefix.scheduler, prefix.warmup_seed,
                         prefix.warmup, prefix.bandwidth_scale) as network:
        network.run(until=prefix.warmup)
        return snapshot_network(
            network,
            description=(
                f"{prefix.topology}/{prefix.scheduler}"
                f"/util={prefix.utilization:g}/warmup={prefix.warmup:g}"
                f"/seed={prefix.warmup_seed}/scale={prefix.bandwidth_scale:g}"
            ),
        )


def get_branch_network(prefix: BranchPrefix) -> Network:
    """A network warmed to ``prefix.warmup``, through the run's
    :class:`~repro.sim.checkpoint.CheckpointStore` (simulated at most once
    per key) or, with none, simulated in memory and branched live.
    Either way it goes through
    :func:`~repro.sim.checkpoint.restore_snapshot`, so the packet-id
    counter and the ``ENGINE_PERF`` credit are identical, and the run's
    hub counts none of the warm-up."""
    return restore_snapshot(CheckpointStore.fetch(
        branch_checkpoint_key(prefix),
        functools.partial(build_branch_snapshot, prefix),
    ))


def prefix_from_spec(spec: ExperimentSpec) -> BranchPrefix:
    """The :class:`BranchPrefix` a branch spec describes.

    Deliberately independent of ``spec.seed``: the per-leg seed drives
    only the post-warm-up traffic, so every leg of a seed sweep shares
    one prefix — that sharing is the whole point.
    """
    warmup = spec.option("warmup", DEFAULT_WARMUP)
    if isinstance(warmup, bool) or not isinstance(warmup, (int, float)):
        raise ConfigurationError(f"warmup must be a number, got {warmup!r}")
    if warmup <= 0:
        raise ConfigurationError(f"warmup must be positive, got {warmup!r}")
    warmup_seed = spec.option("warmup_seed", 1)
    if isinstance(warmup_seed, bool) or not isinstance(warmup_seed, int):
        raise ConfigurationError(
            f"warmup_seed must be an integer, got {warmup_seed!r}"
        )
    return BranchPrefix(
        topology=spec.topology,
        scheduler=spec.schedulers[0] if spec.schedulers else "fifo",
        utilization=spec.utilization,
        warmup=float(warmup),
        bandwidth_scale=spec.bandwidth_scale,
        warmup_seed=warmup_seed,
    )


def _branch_prerequisites(spec: ExperimentSpec) -> dict:
    """Registry hook: the warm-up checkpoint a branch spec branches from."""
    return prerequisites("checkpoint", branch_checkpoint_key,
                         build_branch_snapshot, [prefix_from_spec(spec)])


def _leg_flows(prefix: BranchPrefix, spec: ExperimentSpec):
    """The branch leg's own traffic: seeded per leg, shifted past the
    warm-up horizon, fids offset into the leg range."""
    flows = scenario_flows(prefix.setting, seed=spec.seed,
                           duration=spec.duration,
                           bandwidth_scale=prefix.bandwidth_scale)
    return [
        replace(flow, fid=flow.fid + LEG_FID_BASE, start=flow.start + prefix.warmup)
        for flow in flows
    ]


@register_experiment(
    "branch",
    help="Branch-from-checkpoint sweep: one shared warm-up, one leg per seed",
    options=("warmup", "warmup_seed"),
    params=("duration", "seeds", "bandwidth_scale", "schedulers",
            "topology", "utilization"),
    prerequisites=_branch_prerequisites,
)
def _run_branch(spec: ExperimentSpec) -> tuple[Table, dict]:
    prefix = prefix_from_spec(spec)
    with get_branch_network(prefix) as network:
        leg_flows = _leg_flows(prefix, spec)
        install_udp_flows(network, leg_flows)
        network.run()
        tracer = network.tracer
        exit = tracer.exit_times()
        legs = np.flatnonzero(~np.isnan(exit)
                              & (np.asarray(tracer.flow_id) >= LEG_FID_BASE))
        # The means below are Python sums in slot order: artifacts pin
        # their rounding.
        delays = (exit - np.asarray(tracer.created, dtype=float))[legs].tolist()
        waits = tracer.wait_totals()[legs].tolist()
    table = Table(
        [
            "topology", "scheduler", "seed", "leg flows", "delivered",
            "mean delay", "p99 delay", "mean wait",
        ],
        title=f"branch — {prefix.topology}/{prefix.scheduler}"
              f" warm-up {prefix.warmup:g}s + leg seed {spec.seed}",
    )
    table.add_row(
        [
            prefix.topology,
            prefix.scheduler,
            spec.seed,
            len(leg_flows),
            len(legs),
            sum(delays) / len(delays) if delays else 0.0,
            percentile(delays, 99.0) if delays else 0.0,
            sum(waits) / len(waits) if waits else 0.0,
        ]
    )
    return table, {
        "checkpoint_key": branch_checkpoint_key(prefix),
        "warmup": prefix.warmup,
        "topology": prefix.topology,
        "scheduler": prefix.scheduler,
    }
