"""A reference simulator written from the paper and the written tie rule.

The hop path of ``repro.sim`` is checked against this module.  It shares
nothing with it: no engine, no node, no port, no scheduler, and not
floating-point time — every time, rate and key is a
:class:`~fractions.Fraction`, so its arithmetic is exact.  It follows
three written sources:

* the paper's model: store-and-forward links, a packet visible at the
  next node one propagation delay after its last bit left; LSTF's key
  ``slack + arrival + T(p, α)`` and its header rewrite ``slack -= wait``
  (§2.2, Appendix D); EDF's ``o(p) − tmin(p, α, dest) + T(p, α)``
  (Appendix E); the omniscient per-hop priority ``o(p, α_i)`` (Appendix
  B); §2.1's preemptive service; §3's LSTF drop policy;
* ``docs/determinism.md``, "Same-instant order": events of one instant
  fire by ``(born, seq)``, then the deferred decisions, first-in
  first-out.  A hop is the documented two-event port: service start
  schedules the completion at the last bit, the completion schedules the
  delivery one propagation delay later (over no propagation it delivers
  itself);
* the scheduler contract: equal keys are served first come, first
  served at the port.

Two conventions of the model are stated here because the paper leaves
them open: a hop that takes no time at all (infinite rate, no
propagation) is crossed within the event that reached it, so the
packet is at its next queue at the same instant; and a finite buffer
counts the bytes waiting, not the packet on the wire.

Usage: build a :class:`Simulator` over a topology, :meth:`~Simulator.add`
packets with their injection times, :meth:`~Simulator.run`, and read each
:class:`Packet`'s ``created``, ``exit``, ``hop_tx``, ``hop_waits``,
``dropped_at`` and final ``slack``.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from fractions import Fraction

__all__ = ["DISCIPLINES", "PREEMPTIVE", "Packet", "Simulator"]

#: The non-preemptive disciplines; each serves the queued packet with the
#: smallest key, equal keys in arrival order (SRPT and LIFO see below).
DISCIPLINES = ("fifo", "lifo", "sjf", "srpt", "priority", "lstf", "edf",
               "omniscient")
#: The disciplines the preemptive service runs (§2.1).
PREEMPTIVE = ("lstf", "edf")


class Packet:
    """One packet: its header, and what happened to it."""

    def __init__(self, pid, src, dst, size, *, flow_id, flow_size, remaining_flow,
                 slack, priority, deadline, hop_times=()):
        self.pid, self.src, self.dst, self.size = pid, src, dst, size
        self.flow_id, self.flow_size = flow_id, flow_size
        self.remaining_flow, self.priority = remaining_flow, priority
        self.slack, self.deadline = Fraction(slack), Fraction(deadline)
        self.hop_times = tuple(map(Fraction, hop_times))
        self.hop = 0  # index of the port it is at, along its route
        self.arrived = None  # when it reached that port's queue
        self.created = self.exit = self.dropped_at = None
        self.hop_tx: list[Fraction] = []
        self.hop_waits: list[Fraction] = []


class Simulator:
    """A network of named nodes joined by links, one discipline everywhere.

    ``links`` maps each directed pair ``(u, v)`` to ``(seconds per byte,
    propagation)``; zero seconds per byte is an infinitely fast link.
    ``buffer`` bounds each port's waiting bytes (tail drop, or §3's
    highest-slack victim under ``lstf``); ``preemptive`` selects §2.1's
    service, where a strictly more urgent arrival pauses the packet on the
    wire and the paused packet later resumes with the work it has left.

    ``recharge_arrivals`` judges an arriving packet's slack, when LSTF
    picks a victim, from its arrival at the *previous* port (time 0 at its
    source), so charging it again for a wait it was charged there.  That
    is how ``repro.schedulers.lstf`` does it today, not the paper's rule
    (CHANGES.md, the FOUND line on ``drop_victim``); it lets the rest of
    the hop path be compared exactly until that is mended.
    """

    def __init__(self, links, discipline, *, preemptive=False, buffer=math.inf,
                 recharge_arrivals=False):
        if discipline not in (PREEMPTIVE if preemptive else DISCIPLINES):
            raise ValueError(f"no {'preemptive ' * preemptive}{discipline}")
        self.links = {pair: (Fraction(per_byte), Fraction(prop))
                      for pair, (per_byte, prop) in links.items()}
        self.discipline, self.preemptive, self.buffer = discipline, preemptive, buffer
        self.recharge_arrivals = recharge_arrivals
        self.now = Fraction(0)
        self.events: list[tuple] = []  # sorted (time, born, seq, action, args)
        self.seq = 0
        self.fired = 0
        self.deferred: deque = deque()
        self.ports = {pair: _Port(self, *pair) for pair in sorted(self.links)}
        self._towards: dict[str, dict[str, str]] = {}

    # --- routes: fewest hops, the first neighbour found on a tie -----------

    def next_hop(self, node, dst):
        """Breadth first from ``dst`` along reversed links, each node's
        upstream neighbours in name order; a node's next hop is the node
        through which the search first reached it."""
        tree = self._towards.get(dst)
        if tree is None:
            tree, frontier = {dst: None}, deque([dst])
            while frontier:
                v = frontier.popleft()
                for u in sorted(u for u, w in self.links if w == v):
                    if u not in tree:
                        tree[u] = v
                        frontier.append(u)
            self._towards[dst] = tree
        return tree[node]

    def route(self, src, dst):
        path = [src]
        while path[-1] != dst:
            path.append(self.next_hop(path[-1], dst))
        return path

    def tmin(self, node, dst, size):
        """Uncongested last-bit time from ``node`` to ``dst`` (Appendix A)."""
        path = self.route(node, dst)
        return sum((size * self.links[hop][0] + self.links[hop][1]
                    for hop in zip(path, path[1:])), Fraction(0))

    # --- events --------------------------------------------------------------

    def at(self, time, action, *args):
        """Schedule ``action(*args)`` at ``time``, born now; its entry."""
        self.seq += 1
        entry = (Fraction(time), self.now, self.seq, action, args)
        insort(self.events, entry)
        return entry

    def add(self, packet, time):
        """Inject ``packet`` at its source at ``time``."""
        self.at(time, self._inject, packet)

    def run(self):
        while self.events or self.deferred:
            if self.deferred and (not self.events or self.events[0][0] > self.now):
                self.deferred.popleft()()
                continue
            self.now, _born, _seq, action, args = self.events.pop(0)
            self.fired += 1
            action(*args)

    # --- nodes -----------------------------------------------------------------

    def _inject(self, packet):
        packet.created, packet.hop = self.now, 0
        self._port(packet.src, packet).enqueue(packet)

    def arrive(self, node, packet):
        """The last bit of ``packet`` is at ``node``."""
        if node == packet.dst:
            packet.exit = self.now
        else:
            packet.hop += 1
            self._port(node, packet).enqueue(packet)

    def _port(self, node, packet):
        return self.ports[node, self.next_hop(node, packet.dst)]


class _Port:
    """The output port of link ``u -> v``: a queue and a wire."""

    def __init__(self, sim, u, v):
        self.sim, self.u, self.v = sim, u, v
        self.per_byte, self.prop = sim.links[u, v]
        # Arrival order; preemptive: [key, order, packet, work left, served].
        self.queue: list = []
        self.bytes = 0
        self.wire = None  # the packet on it; preemptive: its queue entry
        self.pending = False
        self.arrivals = 0
        self.started = self.finish = None  # preemptive: the current service

    def tx(self, packet):
        """``T(p, α)``: the time ``packet``'s bits take on this wire."""
        return packet.size * self.per_byte

    def key(self, packet):
        """The discipline's static urgency of a queued ``packet``."""
        name = self.sim.discipline
        if name == "lstf":
            return packet.slack + packet.arrived + self.tx(packet)
        if name == "edf":
            return (packet.deadline - self.sim.tmin(self.u, packet.dst, packet.size)
                    + self.tx(packet))
        if name == "omniscient":
            return packet.hop_times[packet.hop]
        if name == "sjf":
            return packet.flow_size
        if name == "priority":
            return packet.priority
        return 0  # fifo

    # --- arrival -----------------------------------------------------------

    def enqueue(self, packet):
        sim = self.sim
        if self.per_byte == 0 and self.prop == 0:
            packet.arrived = sim.now
            self.log(packet, sim.now)
            sim.arrive(self.v, packet)
            return
        if sim.preemptive:
            packet.arrived = sim.now
            self.arrivals += 1
            self.queue.append([self.key(packet), self.arrivals, packet,
                               self.tx(packet), False])
            self.request()
            return
        while self.bytes + packet.size > sim.buffer:
            victim = self.victim(packet)
            victim.dropped_at = self.u
            if victim is packet:
                return
            self.queue.remove(victim)
            self.bytes -= victim.size
        packet.arrived = sim.now
        self.queue.append(packet)
        self.bytes += packet.size
        if self.wire is None:
            self.request()

    def victim(self, arriving):
        """Tail drop; LSTF drops the packet with the most slack left (§3),
        the arriving one on a tie, else the latest arrival among equals."""
        if self.sim.discipline != "lstf" or not self.queue:
            return arriving
        most = max(range(len(self.queue)), key=lambda k: (self.key(self.queue[k]), k))
        judged = (arriving.arrived or 0) if self.sim.recharge_arrivals else self.sim.now
        if arriving.slack + judged + self.tx(arriving) >= self.key(self.queue[most]):
            return arriving
        return self.queue[most]

    def request(self):
        """A decision at the end of this instant, at most one pending."""
        if not self.pending:
            self.pending = True
            self.sim.deferred.append(self.decide_preemptive if self.sim.preemptive
                                     else self.decide)

    def log(self, packet, now):
        """``packet``'s service starts here at ``now``."""
        packet.hop_tx.append(now)
        packet.hop_waits.append(now - packet.arrived)

    # --- non-preemptive service ------------------------------------------------

    def choose(self):
        """The index of the queued packet served next."""
        queue, name = self.queue, self.sim.discipline
        if name == "lifo":
            return len(queue) - 1
        if name == "srpt":
            # Footnote 8: the earliest queued packet of the flow holding
            # the packet with the least remaining flow.
            best = min(range(len(queue)), key=lambda k: (queue[k].remaining_flow, k))
            return next(k for k, p in enumerate(queue)
                        if p.flow_id == queue[best].flow_id)
        return min(range(len(queue)), key=lambda k: (self.key(queue[k]), k))

    def decide(self):
        self.pending = False
        sim = self.sim
        packet = self.wire = self.queue.pop(self.choose())
        self.bytes -= packet.size
        self.log(packet, sim.now)
        if sim.discipline == "lstf":
            packet.slack -= sim.now - packet.arrived
        sim.at(sim.now + self.tx(packet), self.complete)

    def complete(self):
        """The last bit has left: deliver, and serve the next."""
        packet, self.wire = self.wire, None
        self.hand_on(packet)
        if self.queue:
            self.request()

    def hand_on(self, packet):
        if self.prop == 0:
            self.sim.arrive(self.v, packet)
        else:
            self.sim.at(self.sim.now + self.prop, self.sim.arrive, self.v, packet)

    # --- preemptive service (§2.1) --------------------------------------------

    def decide_preemptive(self):
        self.pending = False
        best = min(self.queue, key=lambda entry: entry[:2])
        if self.wire is not None:
            if best[0] >= self.wire[0]:
                return
            # Pause: the packet keeps the work it has left and queues
            # again as a fresh arrival.
            self.sim.events.remove(self.finish)
            self.arrivals += 1
            paused = self.wire
            self.queue.append([paused[0], self.arrivals, paused[2],
                               paused[3] - (self.sim.now - self.started), True])
        self.queue.remove(best)
        key, order, packet, left, served = best
        if not served:
            self.log(packet, self.sim.now)
        self.wire, self.started = best, self.sim.now
        self.finish = self.sim.at(self.sim.now + left, self.finished)

    def finished(self):
        packet = self.wire[2]
        self.wire = self.finish = None
        if self.sim.discipline == "lstf":
            # Slack drains whenever the last bit is not on the wire.
            packet.slack -= (self.sim.now - packet.arrived) - self.tx(packet)
        self.hand_on(packet)
        if self.queue:
            self.request()
