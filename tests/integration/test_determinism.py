"""Determinism guarantees: identical configuration => identical run.

Replay correctness rests on the recorded schedule being exactly
repeatable (docs/determinism.md), so these tests pin the whole pipeline —
workload generation, event ordering, scheduler tie-breaking, RNG use —
to byte-identical outcomes.
"""

from __future__ import annotations

import numpy as np

from repro.core.packet import reset_packet_ids
from repro.core.replay import record_schedule, replay_schedule
from repro.experiments.replayability import ReplayScenario, build_recorded_schedule
from repro.topology.simple import build_dumbbell
from repro.transport.udp import install_udp_flows
from repro.workload.distributions import BoundedPareto
from repro.workload.flows import PoissonWorkload, poisson_flows
import functools


def _record_once(seed: int):
    reset_packet_ids()
    make = functools.partial(build_dumbbell, num_pairs=4)
    net = make()
    flows = poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=BoundedPareto(1.2, 1500, 50_000),
        workload=PoissonWorkload(0.7, 50e6, duration=0.04, seed=seed),
    )
    install_udp_flows(net, flows)
    return record_schedule(net), make


def test_recording_is_byte_identical_across_runs():
    first, _ = _record_once(seed=5)
    second, _ = _record_once(seed=5)
    assert len(first) == len(second)
    assert first.endpoints() == second.endpoints()
    for name in ("pid", "size", "ingress", "output", "hop_tx"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


def test_replay_is_deterministic():
    schedule, make = _record_once(seed=6)
    first = replay_schedule(schedule, make, mode="lstf")
    second = replay_schedule(schedule, make, mode="lstf")
    assert np.array_equal(first.lateness, second.lateness)


def test_random_original_is_repeatable():
    """Even the Random scheduler records identically under a fixed seed."""
    a = build_recorded_schedule(ReplayScenario(name="det", duration=0.05, seed=9))
    reset_packet_ids()
    b = build_recorded_schedule(ReplayScenario(name="det", duration=0.05, seed=9))
    assert a.output.tolist() == b.output.tolist()


def test_different_seeds_differ():
    a, _ = _record_once(seed=1)
    b, _ = _record_once(seed=2)
    assert a.output.tolist() != b.output.tolist()
