"""Flow arrival processes.

The paper's default load model (§2.3): "Each end host generates UDP flows
using a Poisson inter-arrival model ... at 70% utilization", with sizes
from a heavy-tailed distribution.  :func:`poisson_flows` realises that:
per-host Poisson arrivals whose rate is chosen so the host's *offered
load* equals ``utilization`` times a reference bandwidth (normally the
host's bottleneck access link), with uniformly random destinations.

:func:`long_lived_flows` builds the 90-permanent-flow setup of the
fairness experiment (Figure 4): all flows start within a small random
jitter window and never end (we give them a size that outlasts the
simulation horizon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.flow import Flow
from repro.errors import WorkloadError
from repro.units import MTU
from repro.workload.distributions import SizeDistribution

__all__ = ["PoissonWorkload", "long_lived_flows", "poisson_flows"]


@dataclass(frozen=True, slots=True)
class PoissonWorkload:
    """Parameters of a Poisson open-loop workload."""

    utilization: float
    reference_bandwidth: float
    duration: float
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.utilization < 1.5:
            raise WorkloadError(
                f"utilization should be a fraction like 0.7, got {self.utilization!r}"
            )
        if self.reference_bandwidth <= 0:
            raise WorkloadError("reference bandwidth must be positive")
        if self.duration <= 0:
            raise WorkloadError("duration must be positive")


def poisson_flows(
    hosts: list[str],
    sizes: SizeDistribution,
    workload: PoissonWorkload,
    mtu: int = MTU,
) -> list[Flow]:
    """Generate Poisson flow arrivals for every host.

    Each host offers ``utilization * reference_bandwidth`` bits/second on
    average: flow inter-arrivals are exponential with rate
    ``util * bw / (8 * mean_size)`` and destinations are uniform over the
    other hosts.  Flow ids are globally unique and deterministic given the
    seed.
    """
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts to generate traffic")
    rng = np.random.default_rng(workload.seed)
    mean_size = sizes.mean()
    rate = workload.utilization * workload.reference_bandwidth / (8.0 * mean_size)
    if rate <= 0:
        raise WorkloadError(f"degenerate arrival rate {rate!r}")

    flows: list[Flow] = []
    fid = 0
    for src in sorted(hosts):
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= workload.duration:
                break
            others = [h for h in hosts if h != src]
            dst = others[int(rng.integers(len(others)))]
            fid += 1
            flows.append(
                Flow(fid=fid, src=src, dst=dst, size=sizes.sample(rng), start=t, mtu=mtu)
            )
    flows.sort(key=lambda f: (f.start, f.fid))
    if not flows:
        raise WorkloadError(
            "workload produced no flows; increase duration or utilization"
        )
    return flows


def long_lived_flows(
    pairs: list[tuple[str, str]],
    size: int,
    jitter: float = 0.005,
    seed: int = 1,
    mtu: int = MTU,
) -> list[Flow]:
    """Permanent flows with jittered starts (fairness experiment, §3.3).

    ``pairs`` lists (src, dst) host names; every flow carries ``size``
    bytes — pick it large enough to outlast the measurement horizon.
    Start times are uniform in ``[0, jitter]`` (the paper uses 0–5 ms).
    """
    if not pairs:
        raise WorkloadError("need at least one src/dst pair")
    rng = np.random.default_rng(seed)
    flows = []
    for idx, (src, dst) in enumerate(pairs):
        flows.append(
            Flow(
                fid=idx + 1,
                src=src,
                dst=dst,
                size=size,
                start=float(rng.uniform(0.0, jitter)),
                mtu=mtu,
            )
        )
    flows.sort(key=lambda f: (f.start, f.fid))
    return flows
