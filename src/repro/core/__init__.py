"""Core abstractions: packets, flows, slack algebra, replay, heuristics.

This subpackage holds the paper's primary contribution — the LSTF replay
machinery (§2) and the practical slack-initialisation heuristics (§3) —
plus the packet/flow data model everything else shares.
"""

from repro.core.flow import Flow
from repro.core.packet import Packet
from repro.core.replay import (
    RecordedSchedule,
    ReplayResult,
    record_schedule,
    replay_schedule,
)
from repro.core.heuristics import (
    ConstantSlack,
    FlowSizeSlack,
    SlackPolicy,
    VirtualClockSlack,
)

__all__ = [
    "ConstantSlack",
    "Flow",
    "FlowSizeSlack",
    "Packet",
    "RecordedSchedule",
    "ReplayResult",
    "SlackPolicy",
    "VirtualClockSlack",
    "record_schedule",
    "replay_schedule",
]
