"""Point-to-point links.

A :class:`Link` is a unidirectional pipe with a bandwidth and a propagation
delay.  Bidirectional connectivity is modelled by the network installing
one link (and therefore one output port) in each direction.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.units import tx_time

__all__ = ["Link"]


class Link:
    """A unidirectional link from ``src`` to ``dst``.

    Parameters
    ----------
    src, dst:
        Node names at the two ends.
    bandwidth:
        Bits per second.  ``math.inf`` is allowed (zero transmission time),
        used by the theory gadgets to model "uncongested" routers.
    propagation:
        One-way propagation delay, seconds.
    """

    __slots__ = ("src", "dst", "bandwidth", "propagation", "tx_per_byte")

    def __init__(self, src: str, dst: str, bandwidth: float, propagation: float) -> None:
        if not bandwidth > 0:  # NaN too
            raise ConfigurationError(
                f"link {src}->{dst}: bandwidth must be positive, got {bandwidth!r}"
            )
        if not 0 <= propagation < math.inf:  # NaN too
            raise ConfigurationError(
                f"link {src}->{dst}: propagation must be finite and >= 0, "
                f"got {propagation!r}"
            )
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.propagation = propagation
        #: Serialisation seconds per byte — the hot path multiplies by this
        #: instead of calling :func:`repro.units.tx_time` per packet.
        self.tx_per_byte = 0.0 if math.isinf(bandwidth) else 8.0 / bandwidth

    def tx_time(self, size_bytes: float) -> float:
        """Serialisation delay of a packet of ``size_bytes`` on this link."""
        if size_bytes < 0:
            return tx_time(size_bytes, self.bandwidth)  # raises with context
        return size_bytes * self.tx_per_byte

    def traversal_time(self, size_bytes: float) -> float:
        """Uncongested last-bit traversal time: transmit + propagate."""
        return self.tx_time(size_bytes) + self.propagation

    def utilisation(self, nbytes: float, window: float) -> float:
        """Fraction of capacity used by ``nbytes`` sent during ``window`` s.

        Infinite-bandwidth links (theory gadgets) report 0.0 — they are
        never a bottleneck, so "utilisation" is not meaningful there.
        """
        if window <= 0.0 or math.isinf(self.bandwidth):
            return 0.0
        return (nbytes * 8.0) / (self.bandwidth * window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.src}->{self.dst} bw={self.bandwidth:.3g}bps "
            f"prop={self.propagation:.3g}s>"
        )
