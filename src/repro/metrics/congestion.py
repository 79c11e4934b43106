"""Per-link utilisation over a traced run.

The per-packet congestion-point counts of §2.2 are a schedule's own
columns: see :meth:`repro.core.replay.RecordedSchedule.congestion_points`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.fairness import ARTIFACT_DIGITS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

__all__ = ["link_utilisation"]


def link_utilisation(network: "Network", window: float) -> dict[str, float]:
    """Fraction of each link's capacity used over ``[0, window]``.

    Every packet delivered by ``window`` has its bytes attributed to each
    directed link of its route (``network.route(src, dst)``, the path it
    travelled), then divided by what the link could have carried in
    ``window`` seconds.  Keys are ``"src->dst"`` strings (sorted) so the
    mapping drops straight into artifact metadata; values carry
    :data:`~repro.metrics.fairness.ARTIFACT_DIGITS` decimals, matching the
    fairness embedding.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    tracer = network.tracer
    per_pair: dict[tuple[str, str], int] = {}
    # An undelivered packet's exit is NaN, never <= window.
    for k in np.flatnonzero(tracer.exit_times() <= window).tolist():
        pair = tracer.src[k], tracer.dst[k]
        per_pair[pair] = per_pair.get(pair, 0) + tracer.size[k]
    carried = dict.fromkeys(sorted(network.links), 0)
    for (src, dst), nbytes in per_pair.items():
        route = network.route(src, dst)
        for hop in zip(route, route[1:]):
            carried[hop] += nbytes
    return {
        f"{u}->{v}": round(network.links[u, v].utilisation(nbytes, window),
                           ARTIFACT_DIGITS)
        for (u, v), nbytes in carried.items()
    }
