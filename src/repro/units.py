"""Units, conversions, and shared constants.

Conventions used throughout the package (see docs/architecture.md):

* **time** — ``float`` seconds,
* **bandwidth** — bits per second,
* **packet / flow sizes** — bytes.

A packet of ``size`` bytes sent on a link of bandwidth ``bw`` occupies the
transmitter for ``8 * size / bw`` seconds and is available at the next node
(store-and-forward) one propagation delay after its *last* bit left.
"""

from __future__ import annotations

import math

# --- bandwidth -----------------------------------------------------------

BPS = 1.0
KBPS = 1e3
MBPS = 1e6
GBPS = 1e9

# --- time ----------------------------------------------------------------

SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9

# --- sizes ---------------------------------------------------------------

BYTE = 1
KB = 1_000
MB = 1_000_000

#: Default maximum transmission unit, bytes (Ethernet payload convention
#: used by the paper's ns-2 setup).
MTU = 1500

#: Size of a (pure) TCP acknowledgement, bytes.
ACK_SIZE = 40

#: Tolerance used when comparing simulation timestamps for equality.  One
#: nanosecond is far below any transmission time we simulate, so it absorbs
#: float rounding without masking genuine lateness.
TIME_EPSILON = 1e-9

#: Stands in for "no deadline / unbounded slack" in packet headers.
INFINITY = math.inf


def tx_time(size_bytes: float, bandwidth_bps: float) -> float:
    """Transmission (serialisation) delay of ``size_bytes`` on a link.

    >>> tx_time(1500, 1e9) * 1e6   # a full MTU at 1 Gbps, in microseconds
    12.0
    """
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps!r}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes!r}")
    if math.isinf(bandwidth_bps):
        return 0.0
    return 8.0 * size_bytes / bandwidth_bps
