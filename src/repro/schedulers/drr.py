"""Deficit Round Robin (Shreedhar & Varghese [27]).

Included as an ablation baseline for the fairness experiment (Figure 4):
DRR approximates fair queueing with O(1) dequeues, so comparing LSTF's
convergence against both FQ and DRR shows the result does not hinge on the
precision of the fairness baseline.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.core.packet import Packet
from repro.schedulers.base import Scheduler
from repro.units import MTU

__all__ = ["DrrScheduler"]


class DrrScheduler(Scheduler):
    """Deficit round robin over flows.

    Each round adds one MTU to a flow's deficit: the standard quantum,
    which guarantees O(1) work per dequeue.
    """

    __slots__ = ("_flows", "_deficit")

    name = "drr"

    def __init__(self) -> None:
        super().__init__()
        # Active list keyed by flow id; OrderedDict gives deterministic
        # round-robin order with O(1) membership checks.
        self._flows: "OrderedDict[int, deque[Packet]]" = OrderedDict()
        self._deficit: dict[int, float] = {}

    def push(self, packet: Packet, now: float) -> None:
        fifo = self._flows.get(packet.flow_id)
        if fifo is None:
            self._flows[packet.flow_id] = deque([packet])
            self._deficit[packet.flow_id] = 0.0
        else:
            fifo.append(packet)

    def pop(self, now: float) -> Packet:
        while True:
            flow_id, fifo = next(iter(self._flows.items()))
            deficit = self._deficit[flow_id] + MTU
            head = fifo[0]
            if head.size <= deficit:
                fifo.popleft()
                if fifo:
                    # Flow keeps its remaining deficit but we only charge
                    # a fresh quantum when it returns to the head.
                    self._deficit[flow_id] = deficit - head.size - MTU
                else:
                    del self._flows[flow_id]
                    del self._deficit[flow_id]
                return head
            # Not enough deficit: bank it and rotate the flow to the back.
            self._deficit[flow_id] = deficit
            self._flows.move_to_end(flow_id)
