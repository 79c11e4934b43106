"""Flow descriptions shared by the workload generators and transports."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import MTU

__all__ = ["Flow"]


@dataclass(frozen=True, slots=True)
class Flow:
    """A unidirectional transfer of ``size`` bytes from ``src`` to ``dst``.

    ``start`` is the time the first byte becomes available at the source
    host.  For open-loop (UDP) workloads every segment's ingress time
    ``i(p)`` equals ``start``; the host uplink then paces the burst, exactly
    like an ns-2 CBR source at line rate.  For closed-loop (TCP) workloads
    segment creation times are governed by the congestion window.
    """

    fid: int
    src: str
    dst: str
    size: int
    start: float
    weight: float = field(default=1.0, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"flow size must be positive, got {self.size}")
        if self.src == self.dst:
            raise ValueError(f"flow endpoints must differ, got {self.src!r}")

    def segment_sizes(self) -> list[int]:
        """Sizes of the individual segments; the last may be short.

        >>> Flow(1, "a", "b", 3200, 0.0).segment_sizes()
        [1500, 1500, 200]
        """
        full, rem = divmod(self.size, MTU)
        sizes = [MTU] * full
        if rem or not sizes:
            sizes.append(rem if rem else self.size)
        return sizes
