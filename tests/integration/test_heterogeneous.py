"""Integration: heterogeneous originals and cross-topology replays.

The UPS definition demands uniformity only of the *replay* side; the
original may mix disciplines arbitrarily ("different routers in the
network may use different scheduling logic", §2.1).  These tests drive
exactly that situation end to end.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.replay import record_schedule, replay_schedule
from repro.schedulers import (
    FifoPlusScheduler,
    FqScheduler,
    LifoScheduler,
    SjfScheduler,
)
from repro.topology.internet2 import Internet2Config, build_internet2
from repro.topology.rocketfuel import RocketFuelConfig, build_rocketfuel
from repro.transport.udp import install_udp_flows
from repro.workload.distributions import BoundedPareto
from repro.workload.flows import PoissonWorkload, poisson_flows


def _load(net, duration=0.05, seed=3, util=0.6, ref_bw=10e6):
    flows = poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=BoundedPareto(1.2, 1500, 100_000),
        workload=PoissonWorkload(util, ref_bw, duration=duration, seed=seed),
    )
    install_udp_flows(net, flows)


def test_per_router_scheduler_mix_replays():
    """Four different disciplines across the core, one LSTF replay."""
    cfg = Internet2Config(edges_per_core=2, bandwidth_scale=0.01)
    make = functools.partial(build_internet2, cfg)
    net = make()

    disciplines = [FqScheduler, FifoPlusScheduler, SjfScheduler, LifoScheduler]

    def factory(node: str, _peer: str):
        if node.startswith("h"):
            return None
        return disciplines[sum(node.encode()) % len(disciplines)]()

    net.install_schedulers(factory)
    _load(net)
    schedule = record_schedule(net)
    result = replay_schedule(schedule, make, mode="lstf")
    assert result.fraction_overdue_beyond_threshold < 0.05
    omni = replay_schedule(schedule, make, mode="omniscient")
    assert omni.perfect


def test_edf_on_rocketfuel_matches_lstf():
    """EDF's per-router tmin lookups agree with LSTF's dynamic slack on a
    large irregular topology (83 routers)."""
    cfg = RocketFuelConfig(bandwidth_scale=0.01)
    make = functools.partial(build_rocketfuel, cfg)
    net = make()
    _load(net, duration=0.04, ref_bw=6.22e6)
    schedule = record_schedule(net)
    lstf = replay_schedule(schedule, make, mode="lstf")
    edf = replay_schedule(schedule, make, mode="edf")
    assert np.allclose(lstf.lateness, edf.lateness, atol=1e-9)


def test_replay_judges_against_recorded_targets_not_replay_behaviour():
    """The threshold T and the targets come from the *schedule*, so two
    different replay modes are judged on identical terms."""
    cfg = Internet2Config(edges_per_core=2, bandwidth_scale=0.01)
    make = functools.partial(build_internet2, cfg)
    net = make()
    _load(net, duration=0.03)
    schedule = record_schedule(net)
    a = replay_schedule(schedule, make, mode="lstf")
    b = replay_schedule(schedule, make, mode="priority")
    assert a.schedule is b.schedule
    assert a.schedule.threshold == pytest.approx(b.schedule.threshold)
