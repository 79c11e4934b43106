"""Per-link utilisation over a traced run.

The per-packet congestion-point counts of §2.2 are a schedule's own
columns: see :meth:`repro.core.replay.RecordedSchedule.congestion_points`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Mapping

import numpy as np

from repro.metrics.fairness import ARTIFACT_DIGITS
from repro.sim.link import Link
from repro.sim.tracer import Tracer, group_log

__all__ = ["link_utilisation"]


def link_utilisation(
    tracer: Tracer,
    links: Mapping[tuple[str, str], Link],
    window: float,
) -> dict[str, float]:
    """Fraction of each link's capacity used over ``[0, window]``.

    Every delivered packet's bytes are attributed to each directed link
    its recorded path crossed, then divided by what the link could have
    carried in ``window`` seconds.  Keys are ``"src->dst"`` strings
    (sorted) so the mapping drops straight into artifact metadata;
    values carry :data:`~repro.metrics.fairness.ARTIFACT_DIGITS`
    decimals, matching the fairness embedding.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    # Path-log entries grouped by packet: two in a row of one packet are
    # a hop it crossed.
    order, _counts = group_log(tracer.path_slot, len(tracer))
    slots = np.asarray(tracer.path_slot, dtype=np.int64)[order]
    nodes = [tracer.path_node[e] for e in order.tolist()]
    keys = sorted(links)
    index = {key: k for k, key in enumerate(keys)}
    link = np.fromiter(map(index.get, zip(nodes, nodes[1:]), repeat(-1)),
                       np.int64, len(nodes) - 1)
    owner = slots[:-1]
    keep = ((slots[1:] == owner) & (link >= 0)
            & (tracer.exit_times()[owner] <= window))  # undelivered: NaN
    nbytes = np.bincount(link[keep], np.asarray(tracer.size)[owner[keep]],
                         minlength=len(keys))
    return {
        f"{u}->{v}": round(links[u, v].utilisation(count, window), ARTIFACT_DIGITS)
        for (u, v), count in zip(keys, nbytes.tolist())
    }

