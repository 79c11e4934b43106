"""Differential test: the row-layout hub against the tuple-list hub it
replaced.

Hypothesis draws small runs -- one or two networks under one hub (the
first runs again after the second), an empty first run followed by
``use_preemptive_ports``, ``run(until=...)`` phases with traffic
injected between them, finite buffers that drop -- and
drives each once under :class:`~repro.obs.hub.MetricsHub` and once under
:class:`tests.obs.reference_hub.ReferenceHub`.  Every series name must
give the same ``series_points``, and ``summary()`` and ``counters`` must
be equal.

Bounded examples here; the nightly stress job scales them up with
``REPRO_STRESS_SCALE``.
"""

from __future__ import annotations

import os
import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.store import RunContext
from repro.obs import MetricsHub
from repro.schedulers import LstfScheduler, make_scheduler
from repro.sim.network import Network
from repro.sim.port import PreemptivePort
from repro.units import MBPS
from tests.conftest import make_packet
from tests.obs.reference_hub import ReferenceHub

SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "networks": st.integers(1, 2),
    "hosts": st.integers(2, 4),
    "preempt": st.booleans(),
    "buffer": st.sampled_from((None, 1500, 3000)),  # bytes at SW
    "phases": st.lists(st.sampled_from((0.002, 0.005, None)),
                       min_size=1, max_size=3),
    "interval": st.sampled_from((0.0005, 0.001)),
})


def _network(case: dict, rng: random.Random) -> Network:
    net = Network()
    net.add_router("SW")
    for h in range(case["hosts"]):
        net.add_host(f"h{h}")
        net.add_link(f"h{h}", "SW", rng.choice((8, 16)) * MBPS,
                     rng.choice((0.0, 0.0005)))
    net.install_uniform(lambda: make_scheduler(rng.choice(("fifo", "lstf"))))
    return net


def _inject(net: Network, case: dict, rng: random.Random, start: float) -> None:
    hosts = [f"h{h}" for h in range(case["hosts"])]
    for _ in range(rng.randint(0, 12)):
        src, dst = rng.sample(hosts, 2)
        net.inject_at(start + rng.randint(0, 8) * 0.00025, make_packet(
            src=src, dst=dst, size=rng.choice((500, 1000, 1500)),
            slack=rng.uniform(0.0, 0.01)))


def _drive(hub, case: dict):
    """One run of ``case`` under ``hub``; returns the hub."""
    rng = random.Random(case["seed"])
    nets = []
    with RunContext(hub=hub).entered():
        for _ in range(case["networks"]):
            net = _network(case, rng)
            nets.append(net)
            if case["preempt"]:
                net.run()  # arms the sampler on the original ports
                net.use_preemptive_ports(LstfScheduler)
            elif case["buffer"] is not None:  # PreemptivePort refuses a finite one
                net.set_buffers(case["buffer"])
            for until in case["phases"]:
                _inject(net, case, rng, net.engine.now)
                net.run(until=None if until is None else net.engine.now + until)
            net.run()
        if len(nets) == 2:  # back to the first network, after the second
            _inject(nets[0], case, rng, nets[0].engine.now)
            nets[0].run()
    return hub


#: Fixed corners: two networks sharing link names, and drops;
#: an empty first run, then preemptive ports, then phases.
DROPS = {"seed": 0, "networks": 2, "hosts": 3, "preempt": False,
         "buffer": 1500, "phases": [0.002, None],
         "interval": 0.0005}
PREEMPT = {"seed": 1, "networks": 1, "hosts": 4, "preempt": True,
           "buffer": None, "phases": [0.002, 0.005],
           "interval": 0.001}


@settings(max_examples=60 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases)
@example(DROPS)
@example(PREEMPT)
def test_row_hub_reads_exactly_like_the_tuple_list_hub(case):
    new = _drive(MetricsHub(interval=case["interval"]), case)
    old = _drive(ReferenceHub(interval=case["interval"]), case)
    assert sorted(new.series) == sorted(old.series)
    for name in old.series:
        assert new.series_points(name) == old.series_points(name), name
    assert new.summary() == old.summary()
    assert new.counters == old.counters


def test_the_fixed_corners_are_not_empty():
    hub = _drive(MetricsHub(interval=DROPS["interval"]), DROPS)
    assert hub.counters["drops"] > 0
    assert len(hub._net_samplers) == 2
    # First network, second, then the first again: three segments.
    assert [len(segment.times) > 0 for segment in hub._segments] == [True] * 3
    hub = _drive(MetricsHub(interval=PREEMPT["interval"]), PREEMPT)
    (network, sampler), = hub._net_samplers
    # The empty run's ports, then the preemptive ones for every phase.
    assert isinstance(network.nodes["SW"].ports["h0"], PreemptivePort)
    assert len(hub._segments) == 2
    assert any(depth for name, points in hub.series.items()
               if name.startswith("queue_depth:") for _, depth in points)
