"""Property tests for the shared indexed-heap scheduler queue.

The queue must behave exactly like a reference implementation built on
``heapq`` plus linear scans: same pop order (key, then FIFO), same worst
victim (highest key, then *latest* push), under arbitrary interleavings of
push/pop/evict/worst.  The worst-tracking mirror is built lazily, so the
sequences deliberately call ``worst_entry`` mid-stream to exercise both
the build-from-live path and the incremental-maintenance path.
"""

from __future__ import annotations

import random

import pytest

from repro.core.packet import Packet, reset_packet_ids
from repro.schedulers.base import IndexedHeapQueue


class _Reference:
    """Ordered-list model: O(n) everywhere, obviously correct."""

    def __init__(self):
        self._entries = []  # (key, seq, packet), insertion-ordered
        self._seq = 0

    def push(self, key, packet):
        self._seq += 1
        self._entries.append((key, self._seq, packet))

    def peek_entry(self):
        key, _seq, packet = min(self._entries, key=lambda e: (e[0], e[1]))
        return key, packet

    def pop_entry(self):
        key, packet = self.peek_entry()
        self.evict(packet.pid)
        return key, packet

    def evict(self, pid):
        for entry in self._entries:
            if entry[2].pid == pid:
                self._entries.remove(entry)
                return True
        return False

    def worst_entry(self):
        key, _seq, packet = max(self._entries, key=lambda e: (e[0], e[1]))
        return key, packet

    def __len__(self):
        return len(self._entries)


def _mk(pid_counter):
    return Packet(1, 1000, "a", "b", 0.0)


@pytest.mark.parametrize("seed", range(40))
def test_queue_matches_reference_model(seed):
    reset_packet_ids()
    rng = random.Random(seed)
    queue = IndexedHeapQueue()
    ref = _Reference()
    live_pids = []
    for step in range(300):
        roll = rng.random()
        # Like the port, read and serve only a queue that holds a packet.
        if roll < 0.45 or not len(ref):
            key = rng.randrange(20) / 4.0
            packet = Packet(1, 1000, "a", "b", 0.0)
            queue.push(key, packet)
            ref.push(key, packet)
            live_pids.append(packet.pid)
        elif roll < 0.575:
            packet = queue.pop()
            assert packet is ref.pop_entry()[1]
            live_pids.remove(packet.pid)
        elif roll < 0.70:
            key, packet = queue.pop_entry()
            assert (key, packet) == ref.pop_entry()
            live_pids.remove(packet.pid)
        elif roll < 0.80 and live_pids:
            pid = live_pids.pop(rng.randrange(len(live_pids)))
            assert queue.evict(pid) == ref.evict(pid)
        elif roll < 0.90:
            assert queue.peek_entry() == ref.peek_entry()
        else:
            assert queue.worst_entry() == ref.worst_entry()
        assert len(queue) == len(ref)
    # drain: orders must agree to the end
    while len(ref):
        assert queue.pop() is ref.pop_entry()[1]
    assert len(queue) == 0


def test_fifo_tie_break_on_equal_keys():
    reset_packet_ids()
    queue = IndexedHeapQueue()
    first = Packet(1, 100, "a", "b", 0.0)
    second = Packet(1, 100, "a", "b", 0.0)
    queue.push(1.0, first)
    queue.push(1.0, second)
    assert queue.pop() is first
    assert queue.pop() is second


def test_worst_entry_prefers_latest_push_on_ties():
    reset_packet_ids()
    queue = IndexedHeapQueue()
    older = Packet(1, 100, "a", "b", 0.0)
    newer = Packet(1, 100, "a", "b", 0.0)
    queue.push(5.0, older)
    queue.push(5.0, newer)
    assert queue.worst_entry()[1] is newer


def test_evicted_entries_never_surface():
    reset_packet_ids()
    queue = IndexedHeapQueue()
    packets = [Packet(1, 100, "a", "b", 0.0) for _ in range(5)]
    for i, packet in enumerate(packets):
        queue.push(float(i), packet)
    assert queue.evict(packets[0].pid)
    assert not queue.evict(packets[0].pid)  # already gone
    assert queue.worst_entry()[1] is packets[4]
    assert queue.evict(packets[4].pid)
    assert queue.worst_entry()[1] is packets[3]
    assert [queue.pop().pid for _ in range(3)] == [p.pid for p in packets[1:4]]
    assert len(queue) == 0


def test_worst_mirror_stays_consistent_after_lazy_build():
    """Pushes after the first worst_entry() must maintain the mirror."""
    reset_packet_ids()
    queue = IndexedHeapQueue()
    low = Packet(1, 100, "a", "b", 0.0)
    queue.push(1.0, low)
    assert queue.worst_entry()[1] is low  # builds the mirror
    high = Packet(1, 100, "a", "b", 0.0)
    queue.push(9.0, high)
    assert queue.worst_entry()[1] is high
    queue.pop()  # removes `low`
    assert queue.worst_entry()[1] is high
