"""Discrete-event, store-and-forward network simulation substrate.

This subpackage replaces the paper's use of ns-2.  It provides:

* :mod:`repro.sim.engine` — a deterministic event loop,
* :mod:`repro.sim.link` / :mod:`repro.sim.port` — output-queued ports with
  pluggable schedulers, finite buffers, and an optional preemptive mode,
* :mod:`repro.sim.node` — hosts (with transport agents) and routers,
* :mod:`repro.sim.network` — topology container, routing, ``tmin`` algebra,
* :mod:`repro.sim.tracer` — the packet table (arrival, exit, per-hop
  waits and transmit times) that the replay engine and all metrics consume;
  a packet's path is its route, ``network.route(src, dst)``.
"""

from repro.sim.engine import ENGINE_PERF, Engine, EnginePerf, EventHandle
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.node import Host, Node, Router
from repro.sim.port import Port, PreemptivePort
from repro.sim.tracer import Tracer

__all__ = [
    "ENGINE_PERF",
    "Engine",
    "EnginePerf",
    "EventHandle",
    "Host",
    "Link",
    "Network",
    "Node",
    "Port",
    "PreemptivePort",
    "Router",
    "Tracer",
]
