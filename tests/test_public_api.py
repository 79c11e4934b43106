"""The public API surface: everything advertised in ``repro.__all__``
exists, and the README quickstart runs."""

from __future__ import annotations

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
]


def test_no_signature_takes_a_parameter_production_never_varies():
    for target, parameter in FIXED_PARAMETERS:
        module, _, path = target.partition(":")
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert parameter not in inspect.signature(obj).parameters, target
