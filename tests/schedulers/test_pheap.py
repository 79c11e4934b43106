"""Unit + property tests for the pipelined heap (§5 hardware model)."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.schedulers.base import IndexedHeapQueue
from repro.schedulers.pheap import PHeap, PHeapLstfScheduler
from tests.sim.reference_tracer import delivered, rows


class TestPHeap:
    def test_push_pop_single(self):
        h = PHeap(capacity=7)
        h.push((1.0, 0), "a")
        assert len(h) == 1
        assert h.pop() == ((1.0, 0), "a")
        assert len(h) == 0

    def test_orders_by_key(self):
        h = PHeap(capacity=15)
        for k in (5, 1, 4, 2, 3):
            h.push((float(k), k), k)
        assert [h.pop()[1] for k in range(5)] == [1, 2, 3, 4, 5]

    def test_fifo_tie_break_via_seq(self):
        h = PHeap(capacity=7)
        h.push((1.0, 0), "first")
        h.push((1.0, 1), "second")
        assert h.pop()[1] == "first"
        assert h.pop()[1] == "second"

    def test_peek(self):
        h = PHeap(capacity=7)
        assert h.peek() is None
        h.push((2.0, 0), "x")
        h.push((1.0, 1), "y")
        assert h.peek()[1] == "y"
        assert len(h) == 2  # peek does not remove

    def test_capacity_rounding_and_overflow(self):
        h = PHeap(capacity=5)  # rounds up to 7 slots
        assert h.capacity == 7
        for i in range(7):
            h.push((float(i), i), i)
        with pytest.raises(SchedulerError):
            h.push((99.0, 99), "overflow")

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulerError):
            PHeap(capacity=3).pop()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PHeap(capacity=0)

    def test_interleaved_operations_match_heapq(self):
        rng = np.random.default_rng(0)
        ph = PHeap(capacity=127)
        ref: list = []
        seq = 0
        for _ in range(600):
            if ref and rng.random() < 0.45:
                assert ph.pop()[0] == heapq.heappop(ref)
            elif len(ref) < 127:
                key = (float(rng.integers(0, 50)), seq)
                seq += 1
                ph.push(key, key)
                heapq.heappush(ref, key)
        while ref:
            assert ph.pop()[0] == heapq.heappop(ref)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60),
)
def test_property_pheap_is_a_priority_queue(keys):
    h = PHeap(capacity=63)
    for seq, k in enumerate(keys):
        h.push((k, seq), k)
    drained = [h.pop()[0][0] for _ in keys]
    assert drained == sorted(keys)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_property_pheap_lstf_matches_list_heap_lstf(seed):
    """The p-heap backend must be observationally identical to the
    standard LSTF scheduler on random push/pop sequences."""
    from repro.core.packet import Packet
    from repro.schedulers.lstf import LstfScheduler
    from repro.sim.network import Network
    from repro.units import MBPS

    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 8 * MBPS, 0.0)
    port = net.nodes["a"].ports["b"]

    reference = LstfScheduler()
    reference.attach(port)
    pheap = PHeapLstfScheduler()
    pheap.attach(port)

    rng = np.random.default_rng(seed)
    live = 0
    for step in range(120):
        if live and rng.random() < 0.4:
            a = reference.pop(float(step))
            b = pheap.pop(float(step))
            assert (a.pid if a else None) == (b.pid if b else None)
            live -= 1
        else:
            p1 = Packet(1, 1000, "a", "b", 0.0)
            p2 = Packet(1, 1000, "a", "b", 0.0, pid=p1.pid)
            p1.slack = p2.slack = float(rng.integers(0, 20)) / 10.0
            p1.enqueue_time = p2.enqueue_time = float(step)
            reference.push(p1, float(step))
            pheap.push(p2, float(step))
            live += 1


def test_the_pheap_scheduler_holds_one_queue_and_it_is_a_pheap():
    """The p-heap is the scheduler's only queue, at its default capacity:
    no unused binary heap is built (or pickled) beside it."""
    scheduler = PHeapLstfScheduler()
    held = [getattr(scheduler, slot) for cls in type(scheduler).__mro__
            for slot in getattr(cls, "__slots__", ())]
    assert not any(isinstance(value, IndexedHeapQueue) for value in held)
    assert [type(value) for value in held if isinstance(value, PHeap)] == [
        type(scheduler._queue)]
    assert scheduler._queue.capacity == PHeap().capacity >= 4096


def test_pheap_scheduler_end_to_end_matches_lstf():
    """Full replay with the p-heap backend produces identical lateness."""
    import functools

    from repro.core.replay import record_schedule
    from repro.core.packet import Packet
    from repro.core.slack import replay_headers
    from repro.schedulers.lstf import LstfScheduler
    from repro.topology.simple import build_dumbbell
    from repro.transport.udp import install_udp_flows
    from repro.workload.distributions import BoundedPareto
    from repro.workload.flows import PoissonWorkload, poisson_flows

    make = functools.partial(build_dumbbell, num_pairs=3)
    net = make()
    flows = poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=BoundedPareto(1.2, 1500, 30_000),
        workload=PoissonWorkload(0.6, 50e6, duration=0.03, seed=4),
    )
    install_udp_flows(net, flows)
    schedule = record_schedule(net)

    def run(scheduler_factory):
        replay_net = make()
        replay_net.install_uniform(scheduler_factory)
        packets = rows(schedule)
        tmin = np.array([replay_net.tmin(r["src"], r["dst"], r["size"])
                         for r in packets])
        slack, deadline = replay_headers(schedule.ingress, schedule.output, tmin)
        for rec, s, d in zip(packets, slack.tolist(), deadline.tolist()):
            p = Packet(flow_id=rec["flow_id"], size=rec["size"], src=rec["src"],
                       dst=rec["dst"], created=rec["i"], pid=rec["pid"])
            p.slack, p.deadline = s, d
            replay_net.inject_at(rec["i"], p)
        replay_net.run()
        return {r.pid: r.exit for r in delivered(replay_net.tracer)}

    assert run(LstfScheduler) == run(PHeapLstfScheduler)
