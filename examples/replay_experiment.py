#!/usr/bin/env python
"""Record once, replay many: a replay-mode sweep via the unified API (§2).

One Table 1 scenario, replayed under several candidate universal
schedulers.  The whole comparison is a single
:class:`~repro.api.spec.ExperimentSpec` with a ``replay_modes`` axis:
``sweep()`` expands it into one spec per mode, and
:func:`~repro.api.runner.run_many` records the original schedule
**exactly once** into the sweep's shared schedule store — every mode leg
replays the same content-addressed artifact (``docs/replay.md`` has the
full story).  The recording log printed at the end is the proof.

Run:  python examples/replay_experiment.py [mode ...]
      (modes: lstf lstf-preemptive edf edf-preemptive priority omniscient;
       default: lstf edf priority omniscient)
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import ScheduleStore
from repro.analysis.tables import Table
from repro.api import ExperimentSpec, run_many


def main(modes: list[str]) -> None:
    spec = ExperimentSpec(
        "table1",
        duration=0.1,
        options={"rows": (0,)},  # I2 1G-10G / 70% / Random
        replay_modes=tuple(modes),
    )
    legs = spec.sweep()

    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_many(legs, out_dir=tmp)
        recorded = ScheduleStore(Path(tmp) / "schedules").built_keys()

    merged = Table(
        ["replay mode", "packets", "overdue", "overdue > T"],
        title="I2 1G-10G / 70% / Random — one recording, many replays",
    )
    for artifact in artifacts:
        _scenario, packets, overdue, beyond = artifact.rows[0]
        merged.add_row([artifact.metadata["mode"], packets, overdue, beyond])
    print(merged.render())

    total = sum(a.wall_time_s for a in artifacts)
    print(f"\n{len(artifacts)} replay legs, {total:.1f}s of simulation wall "
          f"time, {len(recorded)} schedule recording(s): {recorded}")
    print(
        "\nExpected shape: the omniscient replay is perfect (Appendix B), "
        "LSTF and EDF agree\n(Appendix E) and miss almost nothing, while "
        "static priorities do noticeably worse\n— and the recording log "
        "shows the original schedule was simulated exactly once."
    )


if __name__ == "__main__":
    main(sys.argv[1:] or ["lstf", "edf", "priority", "omniscient"])
