"""Deterministic traffic patterns: (scenario, seed, duration) → flows.

Each pattern turns a :class:`~repro.scenarios.spec.Scenario` into a
concrete flow list using one seeded ``numpy`` generator, drawn in a
single canonical order, so the same triple always yields the
byte-identical list — the property the scenario hypothesis suite locks
down.

The gadget patterns (who talks to whom, and when; drawn round → sender
→ flow):

* ``incast`` — every sender bursts at the first receiver on each round
  boundary: the synchronized fan-in that stresses one queue.
* ``all-to-all`` — each sender spreads its round's flows across the
  receiver set (the shuffle-stage shape).
* ``permutation`` — one random cyclic shift per round pairs each sender
  with a single receiver, so no receiver is oversubscribed by design.
* ``staggered-burst`` — incast with each sender's burst offset evenly
  within the round, turning the spike into a wave.

Their flow ids are disjoint across seeds: leg ``seed`` owns the id
range ``[seed * SEED_FID_STRIDE + 1, ...)``, so two legs' flows can
never alias even when merged into one trace.

The paper's patterns call the generators of :mod:`repro.workload.flows`
in their own draw order and keep their numbering (fids from 1):

* ``poisson`` — :func:`~repro.workload.flows.poisson_flows`: every host
  offers ``utilization`` of the scenario's bottleneck (§2.3), sizes from
  a Pareto law (α = 1.2) truncated to ``[1500, size_cap]`` bytes, so
  the arrival rate depends on the bandwidth scale.
* ``long-lived`` — :func:`~repro.workload.flows.long_lived_flows`: one
  never-ending flow per sender, starts jittered within ``jitter``
  (Figure 4).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.flow import Flow
from repro.errors import WorkloadError
from repro.scenarios.spec import Scenario
from repro.scenarios.topology import (
    build_scenario_network,
    install_router_schedulers,
    scenario_bottleneck,
    scenario_hosts,
)
from repro.sim.network import Network
from repro.transport.udp import install_udp_flows
from repro.workload.distributions import BoundedPareto, make_distribution
from repro.workload.flows import PoissonWorkload, long_lived_flows, poisson_flows

__all__ = ["SEED_FID_STRIDE", "scenario_flows", "udp_network"]

#: Each seed's flows live in their own id range: seed k owns
#: ``(k * SEED_FID_STRIDE, (k + 1) * SEED_FID_STRIDE]``, so distinct
#: seeds produce disjoint fid streams by construction.
SEED_FID_STRIDE = 1_000_000


def _destination(pattern: str, receivers: list[str], sender_idx: int,
                 flow_idx: int, shift: int) -> str:
    """The canonical receiver for one (pattern, sender, flow) slot."""
    n = len(receivers)
    if pattern in ("incast", "staggered-burst"):
        return receivers[0]
    if pattern == "all-to-all":
        return receivers[(sender_idx + 1 + flow_idx) % n]
    # permutation: the round's shared cyclic shift
    return receivers[(sender_idx + shift) % n]


def scenario_flows(scenario: Scenario, seed: int, duration: float,
                   bandwidth_scale: float = 1.0) -> list[Flow]:
    """The deterministic flow list for one (scenario, seed, duration) leg.

    For the gadget patterns, rounds fire every ``scenario.interval``
    seconds until ``duration`` is covered; each sender contributes
    ``scenario.flows_per_host`` flows per round, starts jittered by the
    seeded RNG and sizes drawn from the scenario's named distribution
    (capped at ``size_cap``).  ``bandwidth_scale`` matters to
    ``poisson`` alone: it sets the bottleneck the load is measured
    against, as in :func:`~repro.scenarios.topology.build_scenario_network`.
    Same arguments ⇒ byte-identical list; for the gadget patterns,
    distinct seeds ⇒ disjoint flow-id ranges (:data:`SEED_FID_STRIDE`).
    """
    if not (duration > 0 and math.isfinite(duration)):  # NaN or ∞ never ends
        raise WorkloadError(f"duration must be finite and positive, got {duration!r}")
    senders, receivers = scenario_hosts(scenario)
    if scenario.pattern == "poisson":
        return poisson_flows(
            hosts=sorted({*senders, *receivers}),
            sizes=BoundedPareto(alpha=1.2, low=1_500, high=scenario.size_cap),
            workload=PoissonWorkload(
                utilization=scenario.utilization,
                reference_bandwidth=scenario_bottleneck(scenario,
                                                        bandwidth_scale),
                duration=duration,
                seed=seed,
            ),
        )
    if scenario.pattern == "long-lived":
        return long_lived_flows(
            pairs=[(src, receivers[i % len(receivers)])
                   for i, src in enumerate(senders)],
            size=10**9,  # effectively infinite: outlasts any horizon
            jitter=scenario.jitter,
            seed=seed,
        )
    sizes = make_distribution(scenario.distribution)
    rng = np.random.default_rng(seed)
    rounds = max(1, int(np.ceil(duration / scenario.interval)))
    stagger = (scenario.interval / len(senders)
               if scenario.pattern == "staggered-burst" else 0.0)

    fid = seed * SEED_FID_STRIDE
    flows: list[Flow] = []
    for r in range(rounds):
        base = r * scenario.interval
        if scenario.pattern == "permutation" and len(receivers) > 1:
            shift = 1 + int(rng.integers(len(receivers) - 1))
        else:
            shift = 0
        for i, src in enumerate(senders):
            offset = base + i * stagger
            for k in range(scenario.flows_per_host):
                start = offset + float(rng.uniform(0.0, scenario.jitter))
                size = min(sizes.sample(rng), scenario.size_cap)
                fid += 1
                flows.append(
                    Flow(
                        fid=fid,
                        src=src,
                        dst=_destination(scenario.pattern, receivers, i, k,
                                         shift),
                        size=size,
                        start=start,
                    )
                )
    flows.sort(key=lambda f: (f.start, f.fid))
    return flows


def udp_network(scenario: Scenario, scheduler: str, seed: int,
                duration: float,
                bandwidth_scale: float = 1.0) -> tuple[Network, list[Flow]]:
    """The scenario's network, ``scheduler`` on its routers, loaded with
    the leg's flows as open-loop UDP — ready to run."""
    network = build_scenario_network(scenario, bandwidth_scale)
    install_router_schedulers(network, scheduler, seed)
    flows = scenario_flows(scenario, seed=seed, duration=duration,
                           bandwidth_scale=bandwidth_scale)
    install_udp_flows(network, flows)
    return network, flows
