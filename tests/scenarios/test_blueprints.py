"""The topology memo: each topology's immutable half, built once per process.

``build_scenario_network`` builds a topology once per process and
arguments into a :class:`~repro.sim.network.Blueprint` and stamps every
later network out of it.  Three promises are checked here: an instance
that sets its buffers or ports never disturbs its siblings or later
builds, and no instance may edit the topology they share (*isolation*); what reaches an artifact, a ``.sched`` entry or a
snapshot is the same whatever the process built before (*history
independence*); and the builder runs once per key (*build once*).
"""

from __future__ import annotations

import math

import pytest

from repro.api import ExperimentSpec, run
from repro.core.packet import Packet
from repro.errors import ConfigurationError
from repro.experiments.branch import BranchPrefix, build_branch_snapshot
from repro.scenarios import build_scenario_network, get_scenario
from repro.scenarios import topology
from repro.schedulers.lstf import LstfScheduler
from repro.sim.checkpoint import snapshot_to_bytes
from repro.sim.port import PreemptivePort
from repro.topology.internet2 import Internet2Config, build_internet2
from repro.topology.simple import build_dumbbell

SCALE = 0.01


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo for the test, the process's own one restored after."""
    memo: dict = {}
    monkeypatch.setattr(topology, "_BLUEPRINTS", memo)
    return memo


def _view(network, src, dst):
    """What a sibling must never see move: a route, a tmin, the ports."""
    ports = {(name, peer): (port, type(port), port.buffer_bytes,
                            type(port.scheduler))
             for name, node in network.nodes.items()
             for peer, port in node.ports.items()}
    return network.route(src, dst), network.tmin(src, dst, 1500), ports


@pytest.mark.parametrize("setting", ["i2-1g-10g", "long-lived-dumbbell"])
def test_editing_one_instance_leaves_its_siblings_alone(cold_memo, setting):
    scenario = get_scenario(setting)
    edited, preempted, sibling = (build_scenario_network(scenario, SCALE)
                                  for _ in range(3))
    hosts = [host.name for host in sibling.hosts]
    src, dst = hosts[0], hosts[-1]
    before = _view(sibling, src, dst)
    # A packet fills the shared memos and the nodes' next-hop ports.
    edited.inject_at(0.0, Packet(1, 1500, src, dst, 0.0))
    edited.run()

    # The shared tables are read, never edited: an instance refuses a
    # topology edit, fresh or after it has carried traffic.
    for network in (edited, preempted):
        with pytest.raises(ConfigurationError, match="has routes"):
            network.add_router("shortcut")
        with pytest.raises(ConfigurationError, match="has routes"):
            network.add_link(src, dst, 1e9)
    edited.set_buffers(3000)
    preempted.use_preemptive_ports(LstfScheduler)
    edited.inject_at(1.0, Packet(2, 1500, src, dst, 1.0))
    edited.run()
    assert edited.tracer.tx_slot.count(1) == len(before[0]) - 1
    assert all(port.buffer_bytes == 3000 for router in edited.routers
               for port in router.ports.values())
    assert all(type(port) is PreemptivePort for node in preempted.nodes.values()
               for port in node.ports.values())

    assert _view(sibling, src, dst) == before
    later = build_scenario_network(scenario, SCALE)
    assert "shortcut" not in later.nodes and (src, "shortcut") not in later.links
    assert _view(later, src, dst)[:2] == before[:2]


def _outputs(out_dir):
    """Table 1 rows (0, 5): the artifact and its ``.sched`` entries; and
    a branch warm-up snapshot."""
    spec = ExperimentSpec("table1", duration=0.01, options={"rows": (0, 5)})
    artifact = run(spec, out_dir=out_dir)
    schedules = {path.name: path.read_bytes()
                 for path in sorted((out_dir / "schedules").glob("*.sched"))}
    snapshot = build_branch_snapshot(BranchPrefix(warmup=0.005))
    return artifact.canonical_json(), schedules, snapshot_to_bytes(snapshot)


def test_what_leaves_a_run_is_the_same_whatever_the_process_built(
        tmp_path, cold_memo):
    cold = _outputs(tmp_path / "cold")
    assert len(cold[1]) == 2
    assert _outputs(tmp_path / "warm") == cold
    # A fresh memo filled in the other order, its route and tmin memos
    # by other packets first.
    cold_memo.clear()
    for setting in ("i2-1g-1g", "i2-1g-10g"):
        build_scenario_network(get_scenario(setting), SCALE)
    run(ExperimentSpec("table1", duration=0.005, seeds=(3,),
                       options={"rows": (5, 0)}, replay_modes=("edf",)))
    assert _outputs(tmp_path / "reversed") == cold


def test_each_topology_is_built_once_per_process(monkeypatch, cold_memo):
    built = []

    def counted(builder):
        def build(*args):
            built.append(builder.__name__)
            return builder(*args)
        return build

    monkeypatch.setitem(topology._PAPER_BUILDERS, Internet2Config,
                        counted(build_internet2))
    monkeypatch.setitem(topology._GADGET_BUILDERS, "dumbbell",
                        counted(build_dumbbell))
    i2, dumbbell = get_scenario("i2-1g-10g"), get_scenario("long-lived-dumbbell")
    for _ in range(3):
        for scale in (SCALE, 2 * SCALE):
            build_scenario_network(i2, scale)
            build_scenario_network(i2.with_(utilization=0.3), scale)  # same links
        build_scenario_network(dumbbell)
    assert sorted(built) == ["build_dumbbell"] + ["build_internet2"] * 2
    assert len(cold_memo) == 3


@pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("setting", ["i2-1g-10g", "fattree", "long-lived-dumbbell"])
def test_a_non_finite_scale_builds_nothing(cold_memo, setting, scale):
    with pytest.raises(ConfigurationError, match="bandwidth_scale"):
        build_scenario_network(get_scenario(setting), scale)
    assert not cold_memo


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_a_paper_builder_refuses_a_non_finite_scale(scale):
    with pytest.raises(ConfigurationError, match="bandwidth_scale"):
        build_internet2(Internet2Config(edges_per_core=1, bandwidth_scale=scale))


@pytest.mark.parametrize("field", ["bottleneck_scale", "delay"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_gadget_refuses_a_non_finite_impairment(field, value):
    """A NaN impairment would reach a link (and a memo key that never
    equals itself); an infinite one would build an unbounded link."""
    with pytest.raises(ConfigurationError, match=f"scenario {field} must be finite"):
        get_scenario("long-lived-dumbbell").with_(**{field: value})
