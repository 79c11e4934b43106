"""The public API surface: everything advertised in ``repro.__all__``
exists, and the README quickstart runs."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__


def test_readme_quickstart_flow():
    make_net = functools.partial(repro.build_dumbbell, num_pairs=4)
    net = make_net()
    flows = repro.poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=repro.BoundedPareto(alpha=1.2, low=1500, high=100_000),
        workload=repro.PoissonWorkload(
            utilization=0.7, reference_bandwidth=50e6, duration=0.05, seed=42
        ),
    )
    repro.install_udp_flows(net, flows)
    schedule = repro.record_schedule(net)
    result = repro.replay_schedule(schedule, make_net, mode="lstf")
    assert "overdue" in result.summary()


def test_scheduler_registry_is_exported():
    names = repro.scheduler_names()
    assert "lstf" in names and "fifo" in names
    assert repro.make_scheduler("lstf").name == "lstf"


#: Parameters every production caller set to one value, now that value:
#: a test needing another patches the constant (``TcpSender.MIN_RTO``).
FIXED_PARAMETERS = [
    ("repro.transport.tcp:TcpSender", "min_rto"),
    ("repro.transport.tcp:install_tcp_flows", "min_rto"),
    ("repro.metrics.delay:packet_delays", "data_only"),
    ("repro.metrics.fairness:throughput_timeseries", "data_only"),
    ("repro.metrics.fairness:flow_throughputs", "data_only"),
    ("repro.api.results:RunArtifact.to_json", "indent"),
    ("repro.api.results:RunArtifact.to_json", "include_timings"),
    ("repro.theory.transformation:transform_to_lstf", "max_swaps"),
    ("repro.obs.spans:SpanRecorder.span", "cat"),
    ("repro.obs.spans:span_record", "pid"),
    ("repro.obs.spans:SpanRecorder", "tid"),
    ("repro.sim.network:Network.bottleneck_tx_time", "size"),
    ("repro.schedulers.drr:DrrScheduler", "quantum"),
    ("repro.schedulers.pheap:PHeapLstfScheduler", "capacity"),
    ("repro.sim.network:Network", "engine"),
    ("repro.sim.port:Port", "buffer_bytes"),
    ("repro.sim.port:PreemptivePort", "buffer_bytes"),
    ("repro.workload.distributions:ExponentialSize", "mean_bytes"),
    ("repro.obs.events:follow_events", "poll_s"),
    ("repro.obs.events:follow_events", "from_start"),
    ("repro.obs.events:follow_events", "stop"),
    ("repro.obs.events:read_events", "kinds"),
    ("repro.sim.network:Network.set_buffers", "node_filter"),
    # a sweep runs serially or over the pool; the queue has its own door
    ("repro.api.runner:run_many", "queue_dir"),
    ("repro.api.runner:run_many", "batch_size"),
    # the engine loop has no observer hook, so the hub carries none
    ("repro.obs.hub:MetricsHub", "flight"),
]

#: Config fields every production caller set to one value, now module
#: constants beside the config (``repro.topology.internet2.CORE_PROP``).
FIXED_FIELDS = {
    "repro.topology.internet2:Internet2Config": (
        "hosts_per_edge", "core_bw_fast", "core_bw_slow", "core_prop",
        "access_prop", "host_prop"),
    "repro.topology.rocketfuel:RocketFuelConfig": (
        "num_routers", "num_core_links", "num_hosts", "access_bw", "host_bw",
        "core_bw_fast", "core_bw_slow", "core_prop", "access_prop", "host_prop",
        "seed"),
    "repro.topology.fattree:FatTreeConfig": ("link_bw", "link_prop", "host_prop"),
    "repro.core.flow:Flow": ("mtu",),
}


def _resolve(target: str):
    """``module:Name.attr``; a target that no longer resolves fails."""
    module, _, path = target.partition(":")
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_no_signature_takes_a_parameter_production_never_varies():
    for target, parameter in FIXED_PARAMETERS:
        assert parameter not in inspect.signature(_resolve(target)).parameters, target


def test_the_queue_is_drained_only_by_a_worker():
    # run_many's local drain processes were the only callers of the
    # module-level drain; `repro worker --drain` builds a Worker.
    import repro.cluster
    import repro.cluster.worker

    assert not hasattr(repro.cluster, "drain_queue")
    assert not hasattr(repro.cluster.worker, "drain_queue")


def test_the_engine_loop_has_no_observer_hook():
    # The flight recorder counted engine callbacks that no artefact read;
    # a wedged worker's SIGUSR1 prints its stack through faulthandler.
    import repro.obs
    from repro.sim.engine import Engine

    assert "FlightRecorder" not in repro.__all__
    assert "FlightRecorder" not in repro.obs.__all__
    assert "flight" not in Engine.__slots__


def test_a_cancellable_event_has_one_door():
    # The delay form was sugar over schedule_cancellable_at(now + delay).
    from repro.sim.engine import Engine

    assert not hasattr(Engine, "schedule_cancellable")


def test_every_port_decides_by_one_rule():
    # PreemptivePort replaces only the serve step (_try_send); when to
    # serve is Port's _request_decision / _decide.
    from repro.sim.port import PreemptivePort

    assert "_decide" not in PreemptivePort.__dict__
    assert "_request_decision" not in PreemptivePort.__dict__


def test_one_port_scheduler_contract():
    # pop always serves (no wake-up path), and a keyed discipline's key
    # is its preemption key (no second hook).
    import repro.schedulers
    from repro.sim.port import Port

    for name in repro.schedulers.__all__:
        cls = getattr(repro.schedulers, name)
        if isinstance(cls, type) and issubclass(cls, repro.schedulers.Scheduler):
            assert not hasattr(cls, "earliest_release"), name
            assert not hasattr(cls, "preemption_key"), name
    assert not hasattr(Port, "_arm_wakeup")
    assert not hasattr(Port, "_on_wakeup")


def test_the_port_owns_the_queue_count():
    # The port calls pop only while Port._queued > 0, so no scheduler
    # counts its own packets (nor may one be tested for truthiness: without
    # __len__ it is always true), and no queue answers an empty read.
    from repro.schedulers import Scheduler, make_scheduler, scheduler_names
    from repro.schedulers.base import IndexedHeapQueue
    from repro.sim.engine import EventHandle

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    registered = {type(make_scheduler(name)) for name in scheduler_names()}
    for cls in registered | {Scheduler, *subclasses(Scheduler)}:
        assert not hasattr(cls, "__len__"), cls.__name__
    assert not hasattr(IndexedHeapQueue, "peek")
    assert not hasattr(EventHandle, "cancelled")


def test_the_test_only_unit_helpers_are_gone():
    # Nothing outside the tests called them.
    import repro.units
    from repro.core.flow import Flow

    assert not hasattr(repro.units, "bits")
    assert not hasattr(repro.units, "packets_for")
    assert not hasattr(Flow, "num_packets")


def test_table_has_no_json_writer():
    # Table.to_json(indent=) had no production caller; artifacts carry
    # tables through Table.rows.
    from repro.analysis.tables import Table

    assert not hasattr(Table, "to_json")


def test_no_config_object_has_a_field_production_never_varies():
    for target, names in FIXED_FIELDS.items():
        fields = {field.name for field in dataclasses.fields(_resolve(target))}
        assert not fields.intersection(names), target
