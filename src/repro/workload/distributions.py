"""Flow-size distributions.

The paper draws flow sizes "from a heavy-tailed distribution [4, 5]" —
i.e. measurement studies of wide-area and datacenter traffic.  We provide:

* :class:`BoundedPareto` — the classical heavy-tail model,
* :class:`EmpiricalCdf` — piecewise-linear inverse-CDF sampling, with the
  two canonical presets from the pFabric paper [3] (web search and data
  mining) plus an internet-like preset used for the Internet2 scenarios,
* :class:`ExponentialSize` — a light-tailed ablation baseline.

All samplers draw from a caller-provided ``numpy`` generator so workloads
are exactly reproducible, and all return integer byte counts ≥ 1.

Every distribution is also a *named* registry entry, so declarative
configs (notably :class:`repro.scenarios.Scenario`) can reference one by
string: :func:`make_distribution` constructs by name and
:func:`distribution_names` enumerates the catalogue.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "BoundedPareto",
    "EmpiricalCdf",
    "ExponentialSize",
    "SizeDistribution",
    "datacenter_distribution",
    "distribution_names",
    "internet_distribution",
    "make_distribution",
    "web_search_distribution",
]


class SizeDistribution:
    """Interface: sample flow sizes in bytes."""

    def sample(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected flow size in bytes (used to size Poisson arrival rates)."""
        raise NotImplementedError


class BoundedPareto(SizeDistribution):
    """Pareto truncated to ``[low, high]`` bytes.

    ``alpha`` near 1.1–1.3 gives the heavy tails seen in traffic studies:
    most flows are tiny, most *bytes* live in elephants.
    """

    def __init__(self, alpha: float = 1.2, low: int = 1_000, high: int = 10_000_000) -> None:
        if not (alpha > 0 and math.isfinite(alpha)):
            raise WorkloadError(f"alpha must be positive and finite, got {alpha!r}")
        if not 0 < low < high < math.inf:  # an infinite bound samples NaN
            raise WorkloadError(f"need 0 < low < high < inf, got low={low!r}, high={high!r}")
        self.alpha = alpha
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        la, ha, a = self.low**self.alpha, self.high**self.alpha, self.alpha
        x = (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / a)
        return max(1, int(round(x)))

    def mean(self) -> float:
        a, l, h = self.alpha, self.low, self.high
        if a == 1.0:
            return l * np.log(h / l) / (1 - l / h)
        return (a * l**a / (1 - (l / h) ** a)) * (h ** (1 - a) - l ** (1 - a)) / (1 - a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedPareto(alpha={self.alpha}, low={self.low:.0f}, high={self.high:.0f})"


class EmpiricalCdf(SizeDistribution):
    """Sample from a piecewise-linear empirical CDF of flow sizes.

    ``points`` is a sequence of ``(size_bytes, cumulative_probability)``
    pairs, increasing in both coordinates, ending at probability 1.0.
    """

    def __init__(self, points: list[tuple[float, float]], name: str = "empirical") -> None:
        if len(points) < 2:
            raise WorkloadError("empirical CDF needs at least two points")
        sizes = [p[0] for p in points]
        probs = [p[1] for p in points]
        if sorted(sizes) != sizes or sorted(probs) != probs:
            raise WorkloadError("CDF points must be non-decreasing in size and probability")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise WorkloadError(f"CDF must end at probability 1.0, got {probs[-1]!r}")
        self._sizes = np.asarray(sizes, dtype=float)
        self._probs = np.asarray(probs, dtype=float)
        self.name = name

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        return max(1, int(round(float(np.interp(u, self._probs, self._sizes)))))

    def mean(self) -> float:
        # Expectation of the piecewise-linear inverse CDF: trapezoid rule
        # over probability space is exact for this distribution.
        return float(np.trapezoid(self._sizes, self._probs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmpiricalCdf({self.name!r}, {len(self._sizes)} points)"


class ExponentialSize(SizeDistribution):
    """Light-tailed ablation baseline."""

    def __init__(self, mean_bytes: float = 30_000.0) -> None:
        if not (mean_bytes > 0 and math.isfinite(mean_bytes)):
            raise WorkloadError(f"mean must be positive and finite, got {mean_bytes!r}")
        self._mean = mean_bytes

    def sample(self, rng: np.random.Generator) -> int:
        return max(1, int(round(rng.exponential(self._mean))))

    def mean(self) -> float:
        return self._mean


def web_search_distribution() -> EmpiricalCdf:
    """pFabric's "web search" workload (DCTCP measurement study) [3].

    Flow sizes in bytes; mean ≈ 1.6 MB, with >95 % of flows under 1 MB but
    most bytes in multi-megabyte flows.
    """
    return EmpiricalCdf(
        [
            (6_000, 0.0),
            (6_000, 0.15),
            (13_000, 0.2),
            (19_000, 0.3),
            (33_000, 0.4),
            (53_000, 0.53),
            (133_000, 0.6),
            (667_000, 0.7),
            (1_333_000, 0.8),
            (3_333_000, 0.9),
            (6_667_000, 0.97),
            (20_000_000, 1.0),
        ],
        name="web-search",
    )


def datacenter_distribution() -> EmpiricalCdf:
    """pFabric's "data mining" workload [3]: extremely heavy-tailed.

    ~80 % of flows fit in a handful of packets while the top 1 % carry
    most of the bytes — the regime Figure 2's flow-size buckets probe.
    """
    return EmpiricalCdf(
        [
            (100, 0.0),
            (180, 0.1),
            (250, 0.2),
            (560, 0.3),
            (900, 0.4),
            (1_100, 0.5),
            (1_870, 0.6),
            (3_160, 0.7),
            (10_000, 0.8),
            (400_000, 0.9),
            (3_160_000, 0.95),
            (100_000_000, 1.0),
        ],
        name="data-mining",
    )


def distribution_names() -> tuple[str, ...]:
    """Names accepted by :func:`make_distribution`, sorted."""
    return tuple(sorted(_NAMED))


def make_distribution(name: str) -> SizeDistribution:
    """Construct a flow-size distribution by registry name.

    ``name`` is one of :func:`distribution_names` (``"web-search"``,
    ``"data-mining"``, ``"internet"``, ``"pareto"``, ``"exponential"``).

    >>> make_distribution("web-search").name
    'web-search'
    """
    try:
        factory = _NAMED[name]
    except KeyError:
        raise WorkloadError(
            f"unknown distribution {name!r}; choose from "
            f"{list(distribution_names())}"
        ) from None
    return factory()


def internet_distribution() -> EmpiricalCdf:
    """Internet-like heavy-tailed mix for the Internet2 scenarios [4, 5].

    Mice-dominated (most flows < 10 kB) with an elephant tail to ~10 MB;
    mean ≈ 120 kB.
    """
    return EmpiricalCdf(
        [
            (1_460, 0.0),
            (1_460, 0.3),
            (2_920, 0.4),
            (4_380, 0.5),
            (7_300, 0.6),
            (10_220, 0.7),
            (58_400, 0.8),
            (105_120, 0.85),
            (525_600, 0.92),
            (2_102_400, 0.97),
            (10_512_000, 1.0),
        ],
        name="internet",
    )


#: The named-distribution catalogue: declarative configs (scenario specs,
#: CLI flags) reference these keys instead of constructing classes.  Each
#: entry is a zero-argument factory returning a fresh, stateless sampler;
#: the analytic laws take their canonical parameters, and the empirical
#: presets are keyed by the names their CDF tables carry.
_NAMED: dict[str, Callable[[], SizeDistribution]] = {
    "pareto": BoundedPareto,
    "exponential": ExponentialSize,
    "web-search": web_search_distribution,
    "data-mining": datacenter_distribution,
    "internet": internet_distribution,
}
