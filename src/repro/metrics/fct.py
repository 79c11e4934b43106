"""Flow completion time metrics (Figure 2).

The figure buckets flows by size and reports the mean FCT per bucket plus
the overall mean.  Bucket edges are the flow sizes the paper labels on its
x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.transport.tcp import TcpStats

__all__ = ["FctBucket", "PAPER_BUCKET_EDGES", "bucket_mean_fct"]

#: Bucket boundaries (bytes) matching Figure 2's x-axis labels.
PAPER_BUCKET_EDGES = (
    1_460, 2_920, 4_380, 7_300, 10_220, 58_400, 105_120,
    525_600, 2_102_400, 10_512_000, float("inf"),
)


@dataclass(frozen=True, slots=True)
class FctBucket:
    """Mean FCT of flows whose size falls in ``(low, high]`` bytes."""

    low: float
    high: float
    count: int
    mean_fct: float

    @property
    def label(self) -> str:
        if self.high == float("inf"):
            return f">{int(self.low)}"
        return f"<={int(self.high)}"


def bucket_mean_fct(stats: TcpStats) -> list[FctBucket]:
    """Mean FCT per :data:`PAPER_BUCKET_EDGES` flow-size bucket; empty
    buckets are omitted."""
    buckets: list[FctBucket] = []
    low = 0.0
    for high in PAPER_BUCKET_EDGES:
        fcts = [
            fct
            for fid, fct in stats.fct.items()
            if low < stats.flow_size[fid] <= high
        ]
        if fcts:
            buckets.append(
                FctBucket(low=low, high=high, count=len(fcts),
                          mean_fct=float(np.mean(fcts)))
            )
        low = high
    return buckets
