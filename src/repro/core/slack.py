"""Slack algebra (§2.1 and Appendix A/D).

The central quantity of the paper: a packet's **slack** is the total
queueing time it can still absorb without missing its target output time,

    slack(p) = o(p) − i(p) − tmin(p, src(p), dest(p))

initialised at the ingress from black-box information only (the desired
output time and the path).  ``tmin`` is the uncongested last-bit traversal
time: per-link serialisation plus propagation, summed along the path
(store-and-forward).

Routers then maintain the invariant of Appendix D,

    slack(p, α, t) = o(p) − t − tmin(p, α, dest(p)) + T(p, α)

by rewriting the header on every dequeue (see
:class:`repro.schedulers.lstf.LstfScheduler`).  :func:`replay_headers`
here is the ingress side, for a whole recorded schedule at once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReplayError

__all__ = ["replay_headers"]


def replay_headers(ingress: np.ndarray, target: np.ndarray, tmin: np.ndarray,
                   degraded: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The ingress headers of a replayed schedule: ``(slack, deadline)``.

    Per packet, ``slack = o(p) − i(p) − tmin`` and ``deadline = o(p)``.
    ``target`` is each packet's ``o(p)`` — or, with ``degraded``, a lossy
    view of it (§5), whose values under the uncongested floor
    ``i(p) + tmin`` are clamped to that floor (zero slack).  A true
    target more than 1 ns under the floor is faster than any scheduler
    can deliver: the recorded schedule is not viable on the replay
    topology, a :class:`~repro.errors.ReplayError`.  Within that 1 ns
    the floor absorbs float rounding.
    """
    if not degraded:
        short = np.flatnonzero((target - ingress) - tmin < -1e-9)
        if short.size:
            k = int(short[0])
            raise ReplayError(
                f"{short.size} target output times are below the uncongested "
                f"traversal time (first: i={float(ingress[k])!r}, "
                f"o={float(target[k])!r}, tmin={float(tmin[k])!r}); the "
                f"schedule is not viable on this topology"
            )
    deadline = np.maximum(target, ingress + tmin)
    return np.maximum((deadline - ingress) - tmin, 0.0), deadline
