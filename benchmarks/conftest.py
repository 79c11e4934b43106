"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at 1/100
bandwidth scale (docs/paper-map.md says why the shape survives scaling) and
prints the rows/series the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables; without it you still get the timing
table and the assertions still guard the paper's qualitative claims.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _fresh_packet_ids():
    from repro.core.packet import reset_packet_ids

    reset_packet_ids()
    yield
    reset_packet_ids()


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    The experiments are deterministic, minutes-long at full fidelity, and
    dominated by simulation work — repeated rounds would only repeat the
    identical computation.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
